/**
 * @file
 * Integration tests: full dense runs through the driver, verifying
 * the paper's qualitative results hold end to end, plus monotonicity
 * properties over the MMU design space.
 */

#include <gtest/gtest.h>

#include "driver/dense_experiment.hh"
#include "mmu/energy_model.hh"

using namespace neummu;

namespace {

/** A small, fast configuration: one AlexNet layer. */
DenseExperimentConfig
smallConfig(MmuConfig mmu)
{
    DenseExperimentConfig cfg;
    cfg.workload = WorkloadId::CNN1;
    cfg.batch = 1;
    cfg.system.mmu = mmu;
    cfg.layerOverride = makeWorkload(WorkloadId::CNN1, 1).layers;
    cfg.layerOverride.resize(2); // conv1 + conv2 only
    return cfg;
}

} // namespace

TEST(DenseIntegration, OracleIsFastestDesignPoint)
{
    const Tick oracle =
        runDenseExperiment(smallConfig(oracleMmuConfig())).totalCycles;
    const Tick iommu =
        runDenseExperiment(smallConfig(baselineIommuConfig()))
            .totalCycles;
    const Tick neummu =
        runDenseExperiment(smallConfig(neuMmuConfig())).totalCycles;
    EXPECT_LT(oracle, iommu);
    EXPECT_LE(oracle, neummu);
    EXPECT_LT(neummu, iommu);
}

TEST(DenseIntegration, BaselineIommuLosesMostPerformance)
{
    // Fig. 8: the baseline IOMMU runs at a small fraction of oracle.
    DenseExperimentConfig cfg;
    cfg.workload = WorkloadId::RNN2;
    cfg.batch = 1;
    cfg.system.mmu = baselineIommuConfig();
    const double norm = normalizedPerformance(cfg);
    EXPECT_LT(norm, 0.25);
}

TEST(DenseIntegration, NeuMmuIsWithinAFewPercentOfOracle)
{
    // Section IV-D: NeuMMU's overhead is negligible.
    for (const WorkloadId id :
         {WorkloadId::CNN1, WorkloadId::RNN1, WorkloadId::RNN3}) {
        DenseExperimentConfig cfg;
        cfg.workload = id;
        cfg.batch = 1;
        cfg.system.mmu = neuMmuConfig();
        EXPECT_GT(normalizedPerformance(cfg), 0.95)
            << workloadName(id);
    }
}

TEST(DenseIntegration, MorePtwsNeverHurt)
{
    // Fig. 11: performance is monotone in walker count.
    Tick prev = maxTick;
    for (const unsigned ptws : {8u, 32u, 128u}) {
        DenseExperimentConfig cfg = smallConfig(neuMmuConfig());
        cfg.system.mmu->numPtws = ptws;
        const Tick cycles = runDenseExperiment(cfg).totalCycles;
        EXPECT_LE(cycles, prev) << ptws;
        prev = cycles;
    }
}

TEST(DenseIntegration, MorePrmbSlotsNeverHurt)
{
    // Fig. 10: merging capacity is monotone too.
    Tick prev = maxTick;
    for (const unsigned slots : {1u, 4u, 16u, 32u}) {
        DenseExperimentConfig cfg = smallConfig(neuMmuConfig());
        cfg.system.mmu->numPtws = 8;
        cfg.system.mmu->prmbSlots = slots;
        const Tick cycles = runDenseExperiment(cfg).totalCycles;
        EXPECT_LE(cycles, prev) << slots;
        prev = cycles;
    }
}

TEST(DenseIntegration, PrmbFiltersWalks)
{
    // PRMB merges same-page bursts: walks drop, merges appear.
    DenseExperimentConfig no_prmb = smallConfig(baselineIommuConfig());
    no_prmb.system.mmu->numPtws = 128;
    const DenseExperimentResult without =
        runDenseExperiment(no_prmb);

    DenseExperimentConfig with_prmb = no_prmb;
    with_prmb.system.mmu->prmbSlots = 32;
    const DenseExperimentResult with = runDenseExperiment(with_prmb);

    EXPECT_LT(with.mmu.walks, without.mmu.walks);
    EXPECT_GT(with.mmu.prmbMerges, 0u);
    EXPECT_GT(without.mmu.redundantWalks, 0u);
    EXPECT_EQ(with.mmu.redundantWalks, 0u);
}

TEST(DenseIntegration, TpRegCutsWalkMemoryAccesses)
{
    DenseExperimentConfig no_tpreg = smallConfig(neuMmuConfig());
    no_tpreg.system.mmu->pathCache = MmuCacheKind::None;
    const DenseExperimentResult without = runDenseExperiment(no_tpreg);

    const DenseExperimentResult with =
        runDenseExperiment(smallConfig(neuMmuConfig()));

    // Same walks, fewer DRAM accesses (Section IV-C: >2.5x).
    EXPECT_GT(double(without.mmu.walkMemAccesses) /
                  double(with.mmu.walkMemAccesses),
              2.0);
    EXPECT_LT(with.translationEnergyNj, without.translationEnergyNj);
}

TEST(DenseIntegration, TpRegUpperLevelsHitAlmostAlways)
{
    // Fig. 13: L4/L3 tag hit rates ~99.5%.
    DenseExperimentConfig cfg;
    cfg.workload = WorkloadId::CNN1;
    cfg.batch = 1;
    cfg.system.mmu = neuMmuConfig();
    const DenseExperimentResult r = runDenseExperiment(cfg);
    ASSERT_GT(r.tpreg.consults, 0u);
    const double l4 = double(r.tpreg.hits[0]) / double(r.tpreg.consults);
    const double l3 = double(r.tpreg.hits[1]) / double(r.tpreg.consults);
    const double l2 = double(r.tpreg.hits[2]) / double(r.tpreg.consults);
    EXPECT_GT(l4, 0.95);
    EXPECT_GT(l3, 0.95);
    EXPECT_LT(l2, l3); // streaming erodes the 2 MB-granular L2 tag
}

TEST(DenseIntegration, NeuMmuUsesLessEnergyThanIommu)
{
    // Section IV-D: 16.3x energy reduction; assert a large factor.
    const DenseExperimentResult iommu =
        runDenseExperiment(smallConfig(baselineIommuConfig()));
    const DenseExperimentResult neummu =
        runDenseExperiment(smallConfig(neuMmuConfig()));
    EXPECT_GT(iommu.translationEnergyNj /
                  neummu.translationEnergyNj,
              4.0);
    EXPECT_GT(double(iommu.mmu.walkMemAccesses) /
                  double(neummu.mmu.walkMemAccesses),
              4.0);
}

TEST(DenseIntegration, LargePagesShrinkTranslationCountForDenseLayers)
{
    DenseExperimentConfig small = smallConfig(baselineIommuConfig());
    DenseExperimentConfig large =
        smallConfig(baselineIommuConfig(largePageShift));
    large.system.pageShift = largePageShift;
    const DenseExperimentResult rs = runDenseExperiment(small);
    const DenseExperimentResult rl = runDenseExperiment(large);
    // Fewer distinct pages -> far fewer walks (Section VI-A).
    EXPECT_LT(rl.mmu.walks * 10, rs.mmu.walks);
    EXPECT_LT(rl.totalCycles, rs.totalCycles);
}

TEST(DenseIntegration, SpatialNpuAlsoBenefitsFromNeuMmu)
{
    // Section VI-B: NeuMMU's conclusions transfer to spatial arrays.
    // Use a memory-bound workload; compute-bound conv layers hide
    // translation latency on any substrate.
    DenseExperimentConfig cfg;
    cfg.workload = WorkloadId::RNN2;
    cfg.batch = 1;
    cfg.system.npu.compute = ComputeKind::Spatial;
    cfg.system.mmu = neuMmuConfig();
    const double neummu = normalizedPerformance(cfg);
    cfg.system.mmu = baselineIommuConfig();
    const double iommu = normalizedPerformance(cfg);
    EXPECT_GT(neummu, 0.9);
    EXPECT_LT(iommu, 0.6);
}

TEST(DenseIntegration, ResultsAreDeterministic)
{
    const DenseExperimentResult a =
        runDenseExperiment(smallConfig(neuMmuConfig()));
    const DenseExperimentResult b =
        runDenseExperiment(smallConfig(neuMmuConfig()));
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.mmu.walks, b.mmu.walks);
    EXPECT_EQ(a.mmu.walkMemAccesses, b.mmu.walkMemAccesses);
}

TEST(DenseIntegration, PerLayerResultsSumToTotalActivity)
{
    const DenseExperimentResult r =
        runDenseExperiment(smallConfig(neuMmuConfig()));
    std::uint64_t translations = 0;
    for (const LayerResult &lr : r.layers) {
        EXPECT_GT(lr.cycles, 0u);
        EXPECT_GT(lr.tiles, 0u);
        translations += lr.translations;
    }
    EXPECT_EQ(translations, r.mmu.requests);
}

TEST(DenseIntegration, SramCostMatchesSectionFourE)
{
    const NeuMmuSramCost cost;
    EXPECT_EQ(cost.prmbBytes(), 32u * KiB);
    EXPECT_EQ(cost.tpregTotalBytes(), 2u * KiB);
    EXPECT_EQ(cost.ptsBytes(), 768u);
}

TEST(DenseIntegrationDeath, MismatchedPageShiftIsCaught)
{
    DenseExperimentConfig cfg = smallConfig(baselineIommuConfig());
    cfg.system.pageShift = largePageShift; // mmu still expects 4 KB
    EXPECT_DEATH(runDenseExperiment(cfg), "page size");
}
