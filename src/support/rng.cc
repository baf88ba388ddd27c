#include "support/rng.hh"

namespace capu
{

std::uint64_t
Rng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range requested
        return next();
    return lo + next() % span;
}

double
Rng::uniformReal()
{
    // 53 high bits -> double in [0, 1)
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniformReal();
}

bool
Rng::chance(double p)
{
    return uniformReal() < p;
}

std::uint64_t
hashString(const char *s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (; *s; ++s) {
        h ^= static_cast<unsigned char>(*s);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace capu
