/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**). Every
 * stochastic element of the simulator draws from an explicitly seeded
 * Rng so experiments are bit-reproducible run to run.
 */

#ifndef NEUMMU_COMMON_RANDOM_HH
#define NEUMMU_COMMON_RANDOM_HH

#include <cstdint>
#include <string>

namespace neummu {

/**
 * Derive an independent child seed from @p root for stream
 * @p stream. Children of the same root with distinct stream ids are
 * statistically independent (splitmix64 over the pair), so every
 * workload of a multi-tenant run can own its own Rng stream derived
 * from the single SystemConfig seed -- reproducible regardless of
 * scheduling or completion order.
 */
std::uint64_t deriveSeed(std::uint64_t root, std::uint64_t stream);

/** FNV-1a 64-bit string hash, for name-keyed Rng streams. */
std::uint64_t hashString(const std::string &s);

/** Small, fast, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound). @p bound must be nonzero. */
    std::uint64_t range(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double uniform();

    /** splitmix64 step: advances @p x and returns the mixed value. */
    static std::uint64_t splitMix(std::uint64_t &x);

  private:
    std::uint64_t s[4];
};

} // namespace neummu

#endif // NEUMMU_COMMON_RANDOM_HH
