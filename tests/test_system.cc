/**
 * @file
 * Tests for the System composition layer: config resolution, machine
 * topology (single NPU, multi-NPU routed, shared memory), the run
 * loop, and the central StatsRegistry.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "expect_throw.hh"
#include "system/system.hh"

using namespace neummu;

TEST(SystemConfig, ResolvesNamedDesigns)
{
    SystemConfig cfg;
    cfg.pageShift = largePageShift;

    cfg.mmuDesign = "oracle";
    EXPECT_TRUE(cfg.resolvedMmuConfig().oracle);
    EXPECT_EQ(cfg.resolvedMmuConfig().pageShift, largePageShift);

    cfg.mmuDesign = "iommu";
    EXPECT_EQ(cfg.resolvedMmuConfig().numPtws, 8u);
    EXPECT_EQ(cfg.resolvedMmuConfig().prmbSlots, 0u);

    cfg.mmuDesign = "neummu";
    EXPECT_EQ(cfg.resolvedMmuConfig().numPtws, 128u);
    EXPECT_EQ(cfg.resolvedMmuConfig().prmbSlots, 32u);

    // An edited walker config replaces the canned one verbatim.
    cfg.mmu = neuMmuConfig(largePageShift);
    cfg.mmu->numPtws = 17;
    EXPECT_EQ(cfg.resolvedMmuConfig().numPtws, 17u);
}

TEST(System, SingleNpuHasNoRouter)
{
    System sys(SystemConfig{});
    EXPECT_EQ(sys.numNpus(), 1u);
    EXPECT_FALSE(sys.hasRouter());
    // The NPU's translation port is the MMU itself.
    EXPECT_EQ(&sys.translationPort(0),
              static_cast<TranslationEngine *>(&sys.mmu()));
}

TEST(System, MultiNpuSharesOneMmuThroughRouter)
{
    SystemConfig cfg;
    cfg.numNpus = 3;
    cfg.mmuDesign = "neummu";
    System sys(cfg);

    EXPECT_EQ(sys.numNpus(), 3u);
    ASSERT_TRUE(sys.hasRouter());
    EXPECT_EQ(sys.router().numClients(), 3u);
    // Distinct ports per NPU, none of them the raw MMU.
    EXPECT_NE(&sys.translationPort(0), &sys.translationPort(1));
    EXPECT_NE(&sys.translationPort(0),
              static_cast<TranslationEngine *>(&sys.mmu()));
    // Private memory per NPU by default.
    EXPECT_NE(&sys.memory(0), &sys.memory(1));
    EXPECT_NE(&sys.hbmNode(0), &sys.hbmNode(1));
}

TEST(System, SharedMemoryTopologyUsesOneNode)
{
    SystemConfig cfg;
    cfg.numNpus = 2;
    cfg.sharedMemory = true;
    System sys(cfg);
    EXPECT_EQ(&sys.memory(0), &sys.memory(1));
    EXPECT_EQ(&sys.hbmNode(0), &sys.hbmNode(1));
}

TEST(System, RunDrivesAFetchToCompletion)
{
    SystemConfig cfg;
    cfg.mmuDesign = "neummu";
    System sys(cfg);

    const Segment seg = sys.addressSpace().allocateBacked(
        "t", 64 * KiB, sys.hbmNode(0), cfg.pageShift);
    Tick done = 0;
    sys.dma(0).fetch({VaRun{seg.base, seg.bytes}},
                     [&](Tick at) { done = at; });
    sys.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(sys.now(), done);
    EXPECT_GT(sys.mmu().counts().requests, 0u);
}

TEST(System, StatsRegistryHoldsEveryComponentGroup)
{
    SystemConfig cfg;
    cfg.name = "m";
    cfg.numNpus = 2;
    System sys(cfg);

    const stats::StatsRegistry &reg = sys.statsRegistry();
    EXPECT_NE(reg.find("m.mmu"), nullptr);
    EXPECT_NE(reg.find("m.router.client0"), nullptr);
    EXPECT_NE(reg.find("m.router.client1"), nullptr);
    EXPECT_NE(reg.find("m.npu0.dma"), nullptr);
    EXPECT_NE(reg.find("m.npu1.mem"), nullptr);
    EXPECT_NE(reg.find("m.sim"), nullptr);
    EXPECT_EQ(reg.find("m.nonexistent"), nullptr);
}

TEST(System, StatsJsonDumpContainsLiveCounters)
{
    SystemConfig cfg;
    cfg.name = "j";
    System sys(cfg);
    const Segment seg = sys.addressSpace().allocateBacked(
        "t", 16 * KiB, sys.hbmNode(0), cfg.pageShift);
    sys.dma(0).fetch({VaRun{seg.base, seg.bytes}}, [](Tick) {});
    sys.run();

    std::ostringstream json;
    sys.dumpStatsJson(json);
    const std::string out = json.str();
    EXPECT_NE(out.find("\"j.npu0.dma\""), std::string::npos);
    EXPECT_NE(out.find("\"translationsIssued\""), std::string::npos);
    EXPECT_NE(out.find("\"j.sim\""), std::string::npos);
    EXPECT_NE(out.find("\"simTicks\""), std::string::npos);
    // Balanced braces: one object per group plus the outer one.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(System, MismatchedPageShiftIsCaught)
{
    SystemConfig cfg;
    cfg.mmu = baselineIommuConfig(smallPageShift);
    cfg.pageShift = largePageShift;
    expectThrowWith<ConfigError>([&] { System{cfg}; }, "page size");
}
