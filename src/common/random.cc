#include "common/random.hh"

namespace neummu {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t root, std::uint64_t stream)
{
    // Two rounds of splitmix64 over (root, stream): mixing the stream
    // id through the same finalizer decorrelates children even for
    // adjacent roots/streams.
    std::uint64_t x = root ^ (0x9e3779b97f4a7c15ull + stream);
    Rng::splitMix(x);
    x ^= stream * 0xbf58476d1ce4e5b9ull;
    return Rng::splitMix(x);
}

std::uint64_t
hashString(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
Rng::splitMix(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitMix(x);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Rng::range(std::uint64_t bound)
{
    // Debiased modulo via rejection sampling on the top of the range.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

double
Rng::uniform()
{
    return double(next() >> 11) * (1.0 / 9007199254740992.0);
}

} // namespace neummu
