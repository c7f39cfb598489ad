#include "driver/dense_experiment.hh"

#include "common/logging.hh"
#include "system/scheduler.hh"

namespace neummu {

DenseExperimentResult
runDenseExperiment(const DenseExperimentConfig &cfg, System &system)
{
    // Thin shim over the Workload API: the dense traffic source does
    // all the work; this driver only assembles the legacy result.
    DenseDnnWorkloadConfig wl_cfg;
    wl_cfg.workload = cfg.workload;
    wl_cfg.batch = cfg.batch;
    wl_cfg.layerOverride = cfg.layerOverride;
    wl_cfg.translationHook = cfg.translationHook;

    Scheduler scheduler(system);
    Workload &wl = scheduler.add(
        std::make_unique<DenseDnnWorkload>(std::move(wl_cfg)), 0);
    scheduler.run();
    NEUMMU_ASSERT(wl.done(), "dense workload never completed");

    DenseExperimentResult result;
    result.layers = static_cast<DenseDnnWorkload &>(wl).layers();

    MmuEngine &mmu = system.mmu();
    DmaEngine &dma = system.dma(0);
    result.totalCycles = system.now();
    result.mmu = mmu.counts();
    // Walker-core extras (TPreg, shared path cache, UPTC) only exist
    // on MmuCore; the zoo designs report their own stats groups.
    if (MmuCore *core = mmu.asMmuCore()) {
        result.tpreg = core->tpregStats();
        if (const MmuCacheStats *pcs = core->sharedCacheStats())
            result.pathCache = *pcs;
        result.uptcEntryHitRate = core->uptcEntryHitRate();
    }
    result.translationEnergyNj =
        EnergyModel{}.translationEnergyNj(mmu.counts());
    result.dmaStallCycles = dma.stallCycles();
    return result;
}

DenseExperimentResult
runDenseExperiment(const DenseExperimentConfig &cfg)
{
    System system(cfg.system);
    return runDenseExperiment(cfg, system);
}

double
normalizedPerformance(const DenseExperimentConfig &cfg)
{
    DenseExperimentConfig oracle_cfg = cfg;
    oracle_cfg.system.mmuDesign = "oracle";
    oracle_cfg.system.mmu.reset();
    const DenseExperimentResult oracle = runDenseExperiment(oracle_cfg);
    const DenseExperimentResult run = runDenseExperiment(cfg);
    NEUMMU_ASSERT(run.totalCycles > 0, "empty run");
    return double(oracle.totalCycles) / double(run.totalCycles);
}

} // namespace neummu
