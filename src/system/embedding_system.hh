/**
 * @file
 * Multi-NPU recommender system drivers (Section V, Figs. 5/15/16).
 *
 * Since the Workload API redesign this is a thin compatibility shim:
 * the policy definitions, the analytic Fig. 15 latency model, and the
 * event-driven Fig. 16 demand-paging gather all live with the
 * EmbeddingWorkload traffic source (workloads/embedding_workload.hh);
 * these entry points keep the original one-call signatures for the
 * benches and tests. New code should use EmbeddingWorkload +
 * Scheduler directly.
 */

#ifndef NEUMMU_SYSTEM_EMBEDDING_SYSTEM_HH
#define NEUMMU_SYSTEM_EMBEDDING_SYSTEM_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "system/system.hh"
#include "workloads/embedding.hh"
#include "workloads/embedding_workload.hh"

namespace neummu {

/**
 * Fig. 15: latency breakdown of one minibatch inference on one device
 * of the N-NPU system under @p policy.
 */
LatencyBreakdown runEmbeddingInference(const EmbeddingModelSpec &spec,
                                       unsigned batch,
                                       EmbeddingPolicy policy,
                                       const EmbeddingSystemConfig &cfg);

/**
 * Fig. 16: gather all embeddings for @p batch samples on device 0,
 * demand-paging remote pages into local memory at @p page_shift
 * granularity, with translations served by the design keyed
 * @p mmu_design. The dense backend (identical across design points)
 * is included in the total.
 */
DemandPagingResult runDemandPaging(const EmbeddingModelSpec &spec,
                                   unsigned batch,
                                   const std::string &mmu_design,
                                   unsigned page_shift,
                                   const EmbeddingSystemConfig &cfg,
                                   std::uint64_t seed = 1);

/**
 * The single-NPU machine description every demand-paging gather runs
 * on: one gather device (remote peers appear only as fault targets)
 * with the DMA burst sized to cover a whole embedding row. Shared by
 * runDemandPaging, bench_sim_throughput, and the golden-stats matrix
 * so the three sites cannot drift apart; callers may override
 * name/seed on the returned config.
 */
SystemConfig demandPagingSystemConfig(
    const EmbeddingModelSpec &spec, const EmbeddingSystemConfig &cfg,
    const std::string &mmu_design,
    unsigned page_shift = smallPageShift);

/**
 * The matching traffic-source description: a DemandPaging-mode
 * EmbeddingWorkload for @p batch samples on @p cfg's cluster.
 * @p seed 0 derives the lookup stream from the SystemConfig seed.
 */
EmbeddingWorkloadConfig demandPagingWorkloadConfig(
    const EmbeddingModelSpec &spec, unsigned batch,
    const EmbeddingSystemConfig &cfg, std::uint64_t seed = 0);

} // namespace neummu

#endif // NEUMMU_SYSTEM_EMBEDDING_SYSTEM_HH
