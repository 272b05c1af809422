#include "common/rng.hh"

namespace griffin {

std::uint64_t
Rng::mixSeed(std::uint64_t seed, const std::string &salt)
{
    std::uint64_t h = mixSeed(seed, salt.size());
    for (unsigned char c : salt)
        h = mixSeed(h, c);
    return h;
}

} // namespace griffin
