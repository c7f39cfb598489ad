/**
 * @file
 * Integration tests for the multi-NPU embedding system (Section V):
 * the Fig. 15 NUMA policies and the Fig. 16 demand-paging study.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "system/embedding_system.hh"

using namespace neummu;

namespace {

EmbeddingSystemConfig
defaultSystem()
{
    return EmbeddingSystemConfig{};
}

} // namespace

TEST(EmbeddingInference, BreakdownPartsArePositive)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const LatencyBreakdown lat = runEmbeddingInference(
        spec, 8, EmbeddingPolicy::HostStagedCopy, defaultSystem());
    EXPECT_GT(lat.gemm, 0u);
    EXPECT_GT(lat.reduction, 0u);
    EXPECT_GT(lat.other, 0u);
    EXPECT_GT(lat.embeddingLookup, 0u);
    EXPECT_EQ(lat.total(),
              lat.gemm + lat.reduction + lat.other + lat.embeddingLookup);
}

TEST(EmbeddingInference, HostCopyDominatedByEmbeddingLookup)
{
    // Fig. 15: the MMU-less baseline spends most of its time moving
    // embeddings through host memory.
    for (const auto &spec : {makeNcf(), makeDlrm()}) {
        const LatencyBreakdown lat = runEmbeddingInference(
            spec, 64, EmbeddingPolicy::HostStagedCopy, defaultSystem());
        EXPECT_GT(double(lat.embeddingLookup) / double(lat.total()), 0.5)
            << spec.name;
    }
}

TEST(EmbeddingInference, NumaOrderingHolds)
{
    // baseline > NUMA(slow) > NUMA(fast) for every batch size.
    for (const auto &spec : {makeNcf(), makeDlrm()}) {
        for (const unsigned batch : {1u, 8u, 64u}) {
            const Tick base =
                runEmbeddingInference(spec, batch,
                                      EmbeddingPolicy::HostStagedCopy,
                                      defaultSystem())
                    .total();
            const Tick slow =
                runEmbeddingInference(spec, batch,
                                      EmbeddingPolicy::NumaSlow,
                                      defaultSystem())
                    .total();
            const Tick fast =
                runEmbeddingInference(spec, batch,
                                      EmbeddingPolicy::NumaFast,
                                      defaultSystem())
                    .total();
            EXPECT_LT(slow, base) << spec.name << " b" << batch;
            EXPECT_LT(fast, slow) << spec.name << " b" << batch;
        }
    }
}

TEST(EmbeddingInference, NumaFastRecoversMostOfTheLoss)
{
    // Section V: NeuMMU-enabled NUMA(fast) yields ~71% average
    // latency reduction (i.e., >= 3x on the large-batch points).
    const Tick base = runEmbeddingInference(
                          makeDlrm(), 64,
                          EmbeddingPolicy::HostStagedCopy,
                          defaultSystem())
                          .total();
    const Tick fast =
        runEmbeddingInference(makeDlrm(), 64, EmbeddingPolicy::NumaFast,
                              defaultSystem())
            .total();
    EXPECT_GT(double(base) / double(fast), 2.0);
}

TEST(EmbeddingInference, DenseBackendIndependentOfPolicy)
{
    const EmbeddingModelSpec spec = makeNcf();
    const LatencyBreakdown a = runEmbeddingInference(
        spec, 8, EmbeddingPolicy::HostStagedCopy, defaultSystem());
    const LatencyBreakdown b = runEmbeddingInference(
        spec, 8, EmbeddingPolicy::NumaFast, defaultSystem());
    EXPECT_EQ(a.gemm, b.gemm);
    EXPECT_EQ(a.reduction, b.reduction);
    EXPECT_EQ(a.other, b.other);
}

TEST(DemandPaging, OracleFaultsOncePerTouchedPage)
{
    const EmbeddingModelSpec spec = makeDlrm();
    const DemandPagingResult r = runDemandPaging(
        spec, 4, "oracle", smallPageShift, defaultSystem());
    EXPECT_GT(r.faults, 0u);
    EXPECT_EQ(r.migratedBytes, r.faults * 4096);
    EXPECT_EQ(r.mmu.faults, r.faults);
}

TEST(DemandPaging, DesignPointOrderingAtSmallPages)
{
    // Fig. 16 (4 KB): oracle >= NeuMMU >> baseline IOMMU.
    const EmbeddingModelSpec spec = makeDlrm();
    const auto oracle = runDemandPaging(spec, 4, "oracle",
                                        smallPageShift, defaultSystem());
    const auto neummu = runDemandPaging(spec, 4, "neummu",
                                        smallPageShift, defaultSystem());
    const auto iommu = runDemandPaging(spec, 4, "iommu",
                                       smallPageShift, defaultSystem());
    EXPECT_LE(oracle.totalCycles, neummu.totalCycles);
    EXPECT_LT(neummu.totalCycles, iommu.totalCycles);
    // NeuMMU recovers most of the oracle's performance...
    EXPECT_GT(double(oracle.totalCycles) / double(neummu.totalCycles),
              0.75);
    // ...while the baseline is several times slower.
    EXPECT_LT(double(oracle.totalCycles) / double(iommu.totalCycles),
              0.5);
}

TEST(DemandPaging, LargePagesBloatMigrationTraffic)
{
    // Section VI-A: 2 MB demand paging moves ~512x the bytes for the
    // same useful data and cannot be saved by NeuMMU.
    const EmbeddingModelSpec spec = makeDlrm();
    const auto small = runDemandPaging(spec, 1, "neummu",
                                       smallPageShift, defaultSystem());
    const auto large = runDemandPaging(spec, 1, "neummu",
                                       largePageShift, defaultSystem());
    EXPECT_EQ(small.usefulBytes, large.usefulBytes);
    EXPECT_GT(large.migratedBytes, small.migratedBytes * 100);
    EXPECT_GT(large.totalCycles, small.totalCycles * 10);
}

TEST(DemandPaging, SameSeedSamePageSizeIsDeterministic)
{
    const EmbeddingModelSpec spec = makeNcf();
    const auto a = runDemandPaging(spec, 2, "neummu",
                                   smallPageShift, defaultSystem(), 7);
    const auto b = runDemandPaging(spec, 2, "neummu",
                                   smallPageShift, defaultSystem(), 7);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.faults, b.faults);
}

TEST(DemandPaging, LocalTablesNeverFault)
{
    // Tables congruent to 0 mod numNpus are resident on device 0;
    // with a single NPU everything is local and nothing faults.
    EmbeddingSystemConfig cfg = defaultSystem();
    cfg.numNpus = 1;
    const auto r = runDemandPaging(makeNcf(), 2, "neummu",
                                   smallPageShift, cfg);
    EXPECT_EQ(r.faults, 0u);
    EXPECT_EQ(r.migratedBytes, 0u);
}

TEST(DemandPaging, FaultsScaleWithBatch)
{
    const EmbeddingModelSpec spec = makeDlrm();
    EmbeddingSystemConfig cfg = defaultSystem();
    const auto b4 = runDemandPaging(spec, 4, "oracle",
                                    smallPageShift, cfg);
    const auto b16 = runDemandPaging(spec, 16, "oracle",
                                     smallPageShift, cfg);
    EXPECT_GT(b16.faults, b4.faults);
}

TEST(PolicyNames, AreStable)
{
    EXPECT_EQ(policyName(EmbeddingPolicy::HostStagedCopy), "Baseline");
    EXPECT_EQ(policyName(EmbeddingPolicy::NumaSlow), "NUMA(slow)");
    EXPECT_EQ(policyName(EmbeddingPolicy::NumaFast), "NUMA(fast)");
    EXPECT_STREQ(translationDesign("neummu").title, "NeuMMU");
}
