/**
 * @file
 * The evaluation's one summary statistic: the paper aggregates
 * per-benchmark metrics with the geometric mean (Section V).
 */

#ifndef GRIFFIN_COMMON_STATS_HH
#define GRIFFIN_COMMON_STATS_HH

#include <vector>

namespace griffin {

/** Geometric mean of strictly positive values.  Empty input -> 1.0. */
double geomean(const std::vector<double> &values);

} // namespace griffin

#endif // GRIFFIN_COMMON_STATS_HH
