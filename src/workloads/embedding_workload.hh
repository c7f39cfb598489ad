/**
 * @file
 * Recommender-system traffic source (Section V, Figs. 5/15/16). Owns
 * the multi-NPU embedding machinery:
 *
 * - the analytic Fig. 15 inference-latency model (HostStagedCopy /
 *   NumaSlow / NumaFast all-to-all gather policies), and
 * - the event-driven Fig. 16 demand-paging gather, which streams one
 *   embedding-row fetch per lookup through the bound slot's DMA and
 *   page-faults remote pages into local memory.
 *
 * As a Workload, inference mode occupies its slot for the modeled
 * inference latency; demand-paging mode emits real DMA / translation
 * traffic and so contends with co-running tenants.
 */

#ifndef NEUMMU_WORKLOADS_EMBEDDING_WORKLOAD_HH
#define NEUMMU_WORKLOADS_EMBEDDING_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/interconnect.hh"
#include "mem/memory_model.hh"
#include "mmu/translation.hh"
#include "npu/npu_config.hh"
#include "npu/tile.hh"
#include "vm/address_space.hh"
#include "workloads/embedding.hh"
#include "workloads/workload.hh"

namespace neummu {

/** Remote-gather mechanism (Fig. 15). */
enum class EmbeddingPolicy
{
    HostStagedCopy,
    NumaSlow,
    NumaFast,
};

std::string policyName(EmbeddingPolicy policy);

/** Cluster-level parameters for the recommender experiments. */
struct EmbeddingSystemConfig
{
    unsigned numNpus = 4;
    NpuConfig npu{};
    MemoryConfig hbm{};
    LinkConfig pcie = pcieLinkConfig();
    LinkConfig npuLink = npuLinkConfig();
    /**
     * CPU-runtime software overhead per staged copy operation
     * (driver call + pinned-buffer management), in cycles.
     */
    Tick copyLaunchOverhead = 1000;
    /** Kernel-launch overhead per dense operator. */
    Tick kernelLaunchOverhead = 500;
    /** CPU-side gather throughput during staged copies. */
    double cpuGatherBytesPerCycle = 64.0;
    /** Outstanding fine-grained NUMA accesses the NPU sustains. */
    unsigned numaConcurrency = 96;
    /** PTWs available for NUMA translations (NeuMMU default). */
    unsigned numPtws = 128;
    Tick walkLatencyPerLevel = 100;
    /** OS/runtime page-fault handling overhead (demand paging). */
    Tick faultHandlerLatency = 10000;
};

/** Latency breakdown of one inference (Fig. 15 categories). */
struct LatencyBreakdown
{
    Tick gemm = 0;
    Tick reduction = 0;
    Tick other = 0;
    Tick embeddingLookup = 0;

    Tick total() const { return gemm + reduction + other +
                                embeddingLookup; }
};

/**
 * Dense-backend latency shared by every policy (Fig. 15 right bars).
 * @p samples is this device's minibatch shard.
 */
LatencyBreakdown embeddingDenseBackend(const EmbeddingModelSpec &spec,
                                       std::uint64_t samples,
                                       const EmbeddingSystemConfig &cfg);

/**
 * Fig. 15 analytic model: latency breakdown of one minibatch
 * inference on one device of the N-NPU cluster under @p policy.
 */
LatencyBreakdown computeEmbeddingInference(
    const EmbeddingModelSpec &spec, unsigned batch,
    EmbeddingPolicy policy, const EmbeddingSystemConfig &cfg);

/** Outcome of one demand-paging run. */
struct DemandPagingResult
{
    Tick totalCycles = 0;
    std::uint64_t faults = 0;
    /** Bytes migrated over the system interconnect. */
    std::uint64_t migratedBytes = 0;
    /** Bytes actually useful (gathered embeddings). */
    std::uint64_t usefulBytes = 0;
    MmuCounts mmu;
};

/** What an EmbeddingWorkload does on its slot. */
enum class EmbeddingWorkloadMode
{
    /**
     * Fig. 15: occupy the slot for the analytically modeled inference
     * latency (no DMA traffic; the all-to-all gather is a closed-form
     * link model).
     */
    Inference,
    /**
     * Fig. 16: gather every embedding row for this device's shard
     * through the slot's DMA, demand-paging remote pages into local
     * memory via the MMU's fault handler.
     */
    DemandPaging,
};

/** Configuration of one recommender traffic source. */
struct EmbeddingWorkloadConfig
{
    EmbeddingModelSpec spec;
    unsigned batch = 4;
    EmbeddingWorkloadMode mode = EmbeddingWorkloadMode::Inference;
    /** Gather policy (Inference mode). */
    EmbeddingPolicy policy = EmbeddingPolicy::NumaFast;
    /** Cluster this device is part of (peer count, links, CPU). */
    EmbeddingSystemConfig cluster{};
    /**
     * Lookup-trace seed; 0 (the default) derives a per-workload
     * stream from the SystemConfig seed, so co-running embedding
     * tenants draw independent lookup sequences. The Fig. 16 runs
     * pin seed 1 (`embedding:...,seed=1`).
     */
    std::uint64_t seed = 0;
};

/**
 * The recommender traffic source. DemandPaging mode installs the
 * page-fault/migration handler on the bound System's MMU, so it
 * expects to be the only faulting tenant of that System.
 */
class EmbeddingWorkload : public Workload
{
  public:
    explicit EmbeddingWorkload(EmbeddingWorkloadConfig cfg);

    const EmbeddingWorkloadConfig &config() const { return _cfg; }

    /** Modeled breakdown (Inference mode). @pre done() */
    const LatencyBreakdown &breakdown() const { return _breakdown; }

    /** Gather outcome (DemandPaging mode). @pre done() */
    const DemandPagingResult &pagingResult() const { return _paging; }

  protected:
    void onBind() override;
    void onStart() override;

  private:
    void bindDemandPaging();

    EmbeddingWorkloadConfig _cfg;
    LatencyBreakdown _breakdown;
    DemandPagingResult _paging;

    // Demand-paging state.
    std::vector<Segment> _tableSegs;
    std::vector<VaRun> _runs;
    std::unique_ptr<Link> _migrateLink;
    std::unordered_map<Addr, Tick> _migrating;
};

} // namespace neummu

#endif // NEUMMU_WORKLOADS_EMBEDDING_WORKLOAD_HH
