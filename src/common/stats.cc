#include "common/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace griffin {

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double v : values) {
        GRIFFIN_ASSERT(v > 0.0, "geomean needs positive values, got ", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace griffin
