/**
 * @file
 * Parameterized synthetic traffic source: configurable VA streams
 * (sequential stride, uniform random, hot-set, pointer chase) with
 * tunable intensity, for exploring the MMU design space beyond the
 * paper's workloads (cf. "Address Translation Design Tradeoffs for
 * Heterogeneous Systems") and for multi-tenant interference studies.
 *
 * The access stream is drawn from a deterministic per-workload Rng
 * derived from the SystemConfig seed, so co-runs reproduce
 * bit-exactly regardless of scheduling order.
 */

#ifndef NEUMMU_WORKLOADS_SYNTHETIC_WORKLOAD_HH
#define NEUMMU_WORKLOADS_SYNTHETIC_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "npu/tile.hh"
#include "vm/address_space.hh"
#include "workloads/workload.hh"

namespace neummu {

/** Shape of the synthetic VA stream. */
enum class SyntheticPattern
{
    /** Sequential walk at strideBytes (dense-DNN-like locality). */
    Stride,
    /** Uniform random over the footprint (embedding-gather-like). */
    UniformRandom,
    /**
     * Skewed: hotProbability of accesses fall in the leading
     * hotFraction of the footprint (cache/TLB-friendly head, cold
     * tail).
     */
    HotSet,
    /**
     * Dependent random accesses: one access in flight at a time, so
     * translation latency is fully exposed (no MLP to hide walks).
     */
    PointerChase,
};

std::string syntheticPatternName(SyntheticPattern pattern);
/** Inverse of syntheticPatternName (case-insensitive); throws
 *  WorkloadError on junk. */
SyntheticPattern syntheticPatternFromName(const std::string &name);

/** Configuration of one synthetic traffic source. */
struct SyntheticWorkloadConfig
{
    SyntheticPattern pattern = SyntheticPattern::Stride;
    /** VA footprint the stream ranges over (backed at bind time). */
    std::uint64_t footprintBytes = 16 * MiB;
    /** Total accesses to issue. */
    std::uint64_t accesses = 4096;
    /** Bytes per access (one VaRun; the DMA splits it into bursts). */
    std::uint64_t accessBytes = 1 * KiB;
    /** Stride pattern: distance between consecutive accesses. */
    std::uint64_t strideBytes = 4 * KiB;
    /** HotSet: leading fraction of the footprint that is hot. */
    double hotFraction = 0.125;
    /** HotSet: probability an access falls in the hot region. */
    double hotProbability = 0.9;
    /**
     * Intensity: accesses handed to the DMA per fetch batch
     * (PointerChase forces 1). Larger batches expose more MLP.
     */
    unsigned batchLength = 64;
    /** Idle cycles between batches (duty-cycle throttling). */
    Tick thinkCycles = 0;
    /**
     * Leave the footprint unbacked at bind time and demand-page it
     * through the System's PagingEngine (which must be enabled).
     * With the engine's residency cap below footprintBytes this is
     * the oversubscribed steady-state evict/fetch scenario.
     */
    bool demandPaged = false;
    /** Stream seed; 0 derives from the SystemConfig seed. */
    std::uint64_t seed = 0;
};

/**
 * Emits the configured VA stream through the bound slot's DMA as a
 * sequence of fetch batches, optionally separated by think time.
 */
class SyntheticWorkload : public Workload
{
  public:
    explicit SyntheticWorkload(SyntheticWorkloadConfig cfg);

    const SyntheticWorkloadConfig &config() const { return _cfg; }

    /** Footprint segment allocated at bind time. */
    const Segment &segment() const { return _segment; }

  protected:
    void onBind() override;
    void onStart() override;

  private:
    Addr nextVa();
    void issueNextBatch();

    SyntheticWorkloadConfig _cfg;
    Segment _segment;
    Rng _rng;
    /** Cached at bind time: updated on every batch completion. */
    stats::Scalar *_batchesIssued = nullptr;
    std::uint64_t _issued = 0;
    std::uint64_t _chaseCursor = 0;
    std::vector<VaRun> _batch;
};

} // namespace neummu

#endif // NEUMMU_WORKLOADS_SYNTHETIC_WORKLOAD_HH
