/**
 * @file
 * Open-loop request arrival processes. An ArrivalProcess is a pure
 * generator: it owns its Rng stream and produces a strictly
 * increasing sequence of arrival ticks with no feedback from the
 * simulation, so the timestamp sequence for a given (config, seed)
 * pair is identical regardless of worker count or how far behind the
 * served system is running -- the defining property of open-loop load
 * generation and what makes the serving dump byte-reproducible.
 */

#ifndef NEUMMU_SERVING_ARRIVAL_HH
#define NEUMMU_SERVING_ARRIVAL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace neummu {
namespace serving {

/** Shape of the request arrival process. */
enum class ArrivalKind
{
    /** Evenly spaced arrivals at the configured mean rate. */
    Fixed,
    /** Memoryless arrivals (exponential inter-arrival gaps). */
    Poisson,
    /**
     * Two-state Markov-modulated Poisson process: a calm state at the
     * base rate and a burst state at burstRatio x the base rate, with
     * exponentially distributed dwell times in each state.
     */
    Bursty,
    /**
     * Nonhomogeneous Poisson process whose rate follows a sinusoidal
     * schedule (the classic day/night load curve), sampled by
     * Lewis-Shedler thinning.
     */
    Diurnal,
};

/** Canonical lower-case name for @p kind. */
const char *arrivalKindName(ArrivalKind kind);

/** Parse @p name into @p out; false when unrecognized. */
bool arrivalKindFromName(const std::string &name, ArrivalKind &out);

/** All valid arrival kind names, for error enumeration. */
const std::vector<std::string> &arrivalKindNames();

/** Knobs shared by every arrival kind (unused ones are ignored). */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean request rate, in requests per million cycles. */
    double ratePerMcycle = 200.0;
    /** Bursty: burst-state rate as a multiple of the base rate. */
    double burstRatio = 8.0;
    /** Bursty: mean dwell in the burst state, cycles. */
    std::uint64_t burstDwellCycles = 200000;
    /** Bursty: mean dwell in the calm state, cycles. */
    std::uint64_t calmDwellCycles = 800000;
    /** Diurnal: period of one full rate cycle, cycles. */
    std::uint64_t diurnalPeriodCycles = 4000000;
    /** Diurnal: peak-to-mean rate swing, in [0, 1]. */
    double diurnalAmplitude = 0.8;
};

/**
 * Generator of a deterministic, strictly increasing arrival-tick
 * sequence. next() returns the absolute tick of the next request.
 */
class ArrivalProcess
{
  public:
    virtual ~ArrivalProcess() = default;

    /** Absolute tick of the next arrival; strictly increasing. */
    virtual Tick next() = 0;

    /** Build the process @p cfg describes, seeded with @p seed. */
    static std::unique_ptr<ArrivalProcess>
    make(const ArrivalConfig &cfg, std::uint64_t seed);
};

} // namespace serving
} // namespace neummu

#endif // NEUMMU_SERVING_ARRIVAL_HH
