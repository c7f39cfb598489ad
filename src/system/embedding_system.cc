#include "system/embedding_system.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "system/scheduler.hh"

namespace neummu {

LatencyBreakdown
runEmbeddingInference(const EmbeddingModelSpec &spec, unsigned batch,
                      EmbeddingPolicy policy,
                      const EmbeddingSystemConfig &cfg)
{
    return computeEmbeddingInference(spec, batch, policy, cfg);
}

SystemConfig
demandPagingSystemConfig(const EmbeddingModelSpec &spec,
                         const EmbeddingSystemConfig &cfg,
                         const std::string &mmu_design,
                         unsigned page_shift)
{
    SystemConfig sys_cfg;
    sys_cfg.name = "paging";
    sys_cfg.mmuDesign = mmu_design;
    sys_cfg.pageShift = page_shift;
    sys_cfg.npu = cfg.npu;
    sys_cfg.memory = cfg.hbm;
    // The gather engine reads whole embedding rows: one run per
    // lookup, burst-sized to cover a row.
    sys_cfg.dmaBurstBytes = std::max<std::uint64_t>(
        cfg.npu.dmaBurstBytes, spec.tables.front().rowBytes());
    return sys_cfg;
}

EmbeddingWorkloadConfig
demandPagingWorkloadConfig(const EmbeddingModelSpec &spec,
                           unsigned batch,
                           const EmbeddingSystemConfig &cfg,
                           std::uint64_t seed)
{
    EmbeddingWorkloadConfig wl_cfg;
    wl_cfg.spec = spec;
    wl_cfg.batch = batch;
    wl_cfg.mode = EmbeddingWorkloadMode::DemandPaging;
    wl_cfg.cluster = cfg;
    wl_cfg.seed = seed;
    return wl_cfg;
}

DemandPagingResult
runDemandPaging(const EmbeddingModelSpec &spec, unsigned batch,
                const std::string &mmu_design, unsigned page_shift,
                const EmbeddingSystemConfig &cfg, std::uint64_t seed)
{
    System system(
        demandPagingSystemConfig(spec, cfg, mmu_design, page_shift));
    Scheduler scheduler(system);
    Workload &wl = scheduler.add(
        std::make_unique<EmbeddingWorkload>(
            demandPagingWorkloadConfig(spec, batch, cfg, seed)),
        0);
    scheduler.run();
    NEUMMU_ASSERT(wl.done(), "gather never completed");
    return static_cast<EmbeddingWorkload &>(wl).pagingResult();
}

} // namespace neummu
