/**
 * @file
 * The MMU design zoo: translation-engine factory surface (keys,
 * error enumeration), ConfigBinder design selection and
 * override ordering, unit behavior of the three non-walker-core
 * designs (RangeMMU, PomTlb, NMT), and their shootdown coherence
 * under demand paging.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/units.hh"
#include "mmu/nmt.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/range_mmu.hh"
#include "mmu/translation_factory.hh"
#include "sim/event_queue.hh"
#include "sweep/config_binder.hh"
#include "sweep/manifest.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

// ---------------------------------------------------------------------
// Factory surface
// ---------------------------------------------------------------------

TEST(DesignFactory, TableKeysRoundTripThroughParse)
{
    for (const TranslationDesign &design : translationDesignTable()) {
        EXPECT_EQ(findTranslationDesign(design.key), &design)
            << design.key;
        SystemConfig cfg;
        sweep::applyOverride(cfg, "mmu.design", design.key);
        EXPECT_EQ(cfg.mmuDesign, design.key);
        EXPECT_FALSE(cfg.mmu.has_value()) << design.key;
    }
    EXPECT_EQ(findTranslationDesign("radix"), nullptr);
}

TEST(DesignFactory, UnknownDesignErrorEnumeratesValidKeys)
{
    SystemConfig cfg;
    try {
        sweep::applyOverride(cfg, "mmu.design", "bogus");
        FAIL() << "bogus design bound";
    } catch (const sweep::BindError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find(translationDesignList()),
                  std::string::npos)
            << what;
        for (const TranslationDesign &design : translationDesignTable())
            EXPECT_NE(what.find(design.key), std::string::npos)
                << design.key;
    }
}

TEST(DesignFactory, BuildsEveryRegisteredDesign)
{
    for (const TranslationDesign &design : translationDesignTable()) {
        SystemConfig cfg;
        sweep::applyOverride(cfg, "mmu.design", design.key);
        System sys(cfg);
        EXPECT_GE(sys.mmu().walkerBudget(), 1u) << design.key;
        // Walker-core designs (and only those) carry a canned config
        // and downcast to MmuCore.
        EXPECT_EQ(sys.mmu().asMmuCore() != nullptr,
                  design.mmuConfig != nullptr)
            << design.key;
    }
}

// ---------------------------------------------------------------------
// Binder ordering (the override-ordering bugfix)
// ---------------------------------------------------------------------

TEST(DesignBinder, KindThenEditsCustomizesTheNamedPoint)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "mmu.design", "neummu");
    sweep::applyOverride(cfg, "mmu.numPtws", "32");
    EXPECT_EQ(cfg.mmuDesign, "neummu");
    ASSERT_TRUE(cfg.mmu.has_value());
    EXPECT_EQ(cfg.mmu->numPtws, 32u);
    // The rest of the materialized config is the NeuMMU point.
    EXPECT_EQ(cfg.mmu->prmbSlots, neuMmuConfig().prmbSlots);
}

TEST(DesignBinder, EditsThenKindIsAnOrderingError)
{
    // Before the fix this order silently discarded the mmu.* edit;
    // now it refuses deterministically, and so does a preset.
    SystemConfig cfg;
    sweep::applyOverride(cfg, "mmu.numPtws", "32");
    ASSERT_TRUE(cfg.mmu.has_value());
    for (const auto &[key, value] :
         {std::pair<const char *, const char *>{"mmu.design", "neummu"},
          {"preset", "dlrm_paging"}}) {
        try {
            sweep::applyOverride(cfg, key, value);
            FAIL() << key << " after mmu.* edits did not throw";
        } catch (const sweep::BindError &err) {
            EXPECT_NE(std::string(err.what()).find("discard"),
                      std::string::npos)
                << err.what();
        }
    }
    // The edit survived the rejected overrides.
    EXPECT_EQ(cfg.mmuDesign, "iommu");
    EXPECT_EQ(cfg.mmu->numPtws, 32u);
}

TEST(DesignBinder, PresetOnTheDefaultDesignBinds)
{
    // The default config names the iommu design, so a preset needs
    // no mmu.design= in front of it.
    SystemConfig cfg;
    sweep::applyOverride(cfg, "preset", "dlrm_paging");
    EXPECT_EQ(cfg.mmuDesign, "iommu");
    EXPECT_FALSE(cfg.mmu.has_value());
}

TEST(DesignBinder, WalkerCoreKeysRejectedOnZooDesigns)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "mmu.design", "range");
    try {
        sweep::applyOverride(cfg, "mmu.numPtws", "32");
        FAIL() << "mmu.* keys bound onto a zoo design";
    } catch (const sweep::BindError &err) {
        EXPECT_NE(std::string(err.what()).find("mmu.range.*"),
                  std::string::npos)
            << err.what();
    }
}

TEST(DesignBinder, ZooKnobsBindWithoutFlippingTheKind)
{
    SystemConfig cfg;
    const std::string before = cfg.mmuDesign;
    sweep::applyOverride(cfg, "mmu.range.entries", "8");
    sweep::applyOverride(cfg, "mmu.range.maxPages", "64");
    sweep::applyOverride(cfg, "mmu.pom.entries", "4096");
    sweep::applyOverride(cfg, "mmu.pom.ways", "2");
    sweep::applyOverride(cfg, "mmu.nmt.segmentShift", "4");
    sweep::applyOverride(cfg, "mmu.nmt.fetchLatency", "50");
    EXPECT_EQ(cfg.mmuDesign, before);
    EXPECT_FALSE(cfg.mmu.has_value());
    EXPECT_EQ(cfg.rangeMmu.entries, 8u);
    EXPECT_EQ(cfg.rangeMmu.maxRangePages, 64u);
    EXPECT_EQ(cfg.pomTlb.entries, 4096u);
    EXPECT_EQ(cfg.pomTlb.ways, 2u);
    EXPECT_EQ(cfg.nmt.segmentShift, 4u);
    EXPECT_EQ(cfg.nmt.fetchLatency, 50u);
    // ... and survive a later preset (machine swap keeps the zoo
    // sub-configs, like sim.*).
    sweep::applyOverride(cfg, "mmu.design", "nmt");
    sweep::applyOverride(cfg, "preset", "dlrm_paging");
    EXPECT_EQ(cfg.mmuDesign, "nmt");
    EXPECT_EQ(cfg.nmt.fetchLatency, 50u);
    EXPECT_EQ(cfg.rangeMmu.entries, 8u);
}

// ---------------------------------------------------------------------
// Engine unit behavior
// ---------------------------------------------------------------------

namespace {

/** Fixture mapping a contiguous region behind a chosen zoo engine. */
class ZooEngineTest : public ::testing::Test
{
  protected:
    ZooEngineTest() : node("host", Addr(1) << 40, 1 * GiB), pt(node) {}

    void
    mapPages(std::uint64_t pages)
    {
        base = Addr(0x80) << 30;
        // Allocate all leaf frames before mapping: pt.map() carves
        // radix nodes from the same allocator, and interleaving them
        // would break the PA contiguity RangeMMU eagerly probes for.
        std::vector<Addr> frames;
        for (std::uint64_t i = 0; i < pages; i++)
            frames.push_back(node.allocate(4096, 4096));
        for (std::uint64_t i = 0; i < pages; i++)
            pt.map(base + i * 4096, frames[i], smallPageShift);
        mapped = pages;
    }

    void
    attach(MmuEngine &engine)
    {
        engine.setResponseCallback(
            [this](const TranslationResponse &r) {
                responses.push_back({eq.now(), r});
            });
        engine.setWakeCallback([this] { wakes++; });
    }

    FrameAllocator node;
    PageTable pt;
    EventQueue eq;
    Addr base = 0;
    std::uint64_t mapped = 0;
    std::vector<std::pair<Tick, TranslationResponse>> responses;
    unsigned wakes = 0;
};

} // namespace

TEST_F(ZooEngineTest, RangeMmuOneWalkCoversTheContiguousRun)
{
    mapPages(32);
    RangeMmuConfig cfg;
    RangeMmu mmu("range", eq, pt, smallPageShift, cfg);
    attach(mmu);

    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    // Miss cost: hit-latency probe + 4 radix levels.
    EXPECT_EQ(responses[0].first,
              cfg.hitLatency + 4 * cfg.walkLatencyPerLevel);
    EXPECT_EQ(mmu.counts().walks, 1u);
    EXPECT_EQ(mmu.liveRanges(), 1u);

    // The whole bump-allocated run was installed as ONE range: the
    // 31st page away hits without another walk.
    ASSERT_TRUE(mmu.translate(base + 31 * 4096 + 8, 2));
    const Tick t0 = eq.now();
    eq.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].first - t0, cfg.hitLatency);
    EXPECT_EQ(mmu.counts().walks, 1u);
    EXPECT_EQ(mmu.counts().tlbHits, 1u);
    // Translation is base+offset inside the run.
    const WalkResult w = pt.walk(base + 31 * 4096 + 8);
    EXPECT_EQ(responses[1].second.pa, w.pa);
}

TEST_F(ZooEngineTest, RangeMmuShootdownSplitsInsteadOfFlushing)
{
    mapPages(32);
    RangeMmu mmu("range", eq, pt, smallPageShift, RangeMmuConfig{});
    attach(mmu);
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(mmu.liveRanges(), 1u);

    // Kill a middle page: the covering range splits around it.
    const Addr victim = base + 16 * 4096;
    const UnmapResult um = pt.unmap(victim);
    ASSERT_TRUE(um.unmapped);
    mmu.shootdown(victim, um);
    EXPECT_EQ(mmu.liveRanges(), 2u);
    EXPECT_EQ(mmu.counts().shootdowns, 1u);

    // Both halves still hit; the dead page would miss.
    ASSERT_TRUE(mmu.translate(base + 4096, 2));
    ASSERT_TRUE(mmu.translate(base + 20 * 4096, 3));
    eq.run();
    EXPECT_EQ(mmu.counts().tlbHits, 2u);
    EXPECT_EQ(mmu.counts().walks, 1u);
}

TEST_F(ZooEngineTest, PomTlbServesL1MissesFromMemory)
{
    mapPages(8);
    PomTlbConfig cfg;
    cfg.l1.entries = 2;
    PomTlb mmu("pom", eq, pt, smallPageShift, cfg);
    attach(mmu);

    // Cold: L1 miss -> POM lookup (timed DRAM read) -> POM miss ->
    // radix walk -> install everywhere.
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(mmu.counts().walks, 1u);
    EXPECT_EQ(mmu.pomSize(), 1u);

    // Evict base from the tiny L1 with two other pages; the re-access
    // then misses L1 but hits the in-memory level: no second walk.
    ASSERT_TRUE(mmu.translate(base + 4096, 2));
    eq.run();
    ASSERT_TRUE(mmu.translate(base + 2 * 4096, 3));
    eq.run();
    ASSERT_TRUE(mmu.translate(base, 4));
    eq.run();
    ASSERT_EQ(responses.size(), 4u);
    EXPECT_EQ(mmu.counts().walks, 3u); // one per distinct page only
    const WalkResult w = pt.walk(base);
    EXPECT_EQ(responses[3].second.pa, w.pa);
}

TEST_F(ZooEngineTest, PomTlbShootdownScrubsBothLevels)
{
    mapPages(4);
    PomTlb mmu("pom", eq, pt, smallPageShift, PomTlbConfig{});
    attach(mmu);
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(mmu.pomSize(), 1u);

    const UnmapResult um = pt.unmap(base);
    ASSERT_TRUE(um.unmapped);
    mmu.shootdown(base, um);
    EXPECT_EQ(mmu.pomSize(), 0u);
    EXPECT_EQ(mmu.counts().shootdowns, 1u);
}

TEST_F(ZooEngineTest, NmtSegmentHitNeedsTheMappedPage)
{
    mapPages(8);
    NmtConfig cfg;
    cfg.segmentShift = 4; // 16-page segments
    Nmt mmu("nmt", eq, pt, smallPageShift, cfg);
    attach(mmu);

    // One flat fetch -- not a 4-level walk -- per segment miss.
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].first, cfg.hitLatency + cfg.fetchLatency);
    EXPECT_EQ(mmu.counts().walkMemAccesses, 1u);
    EXPECT_EQ(mmu.liveSegments(), 1u);

    // A mapped sibling page in the cached segment hits...
    ASSERT_TRUE(mmu.translate(base + 3 * 4096, 2));
    const Tick t0 = eq.now();
    eq.run();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[1].first - t0, cfg.hitLatency);
    EXPECT_EQ(mmu.counts().tlbHits, 1u);

    // ...but an UNMAPPED page in the same segment must not ride the
    // segment hit past its demand fault: it faults and maps.
    bool faulted = false;
    mmu.setFaultHandler([&](Addr va, Tick now) -> Tick {
        faulted = true;
        pt.map(pageBase(va, smallPageShift),
               node.allocate(4096, 4096), smallPageShift);
        return now + 10;
    });
    ASSERT_TRUE(mmu.translate(base + 9 * 4096, 3));
    eq.run();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_TRUE(faulted);
    EXPECT_EQ(mmu.counts().faults, 1u);
}

TEST_F(ZooEngineTest, NmtShootdownDropsTheSegment)
{
    mapPages(8);
    NmtConfig cfg;
    cfg.segmentShift = 2; // 4-page segments
    Nmt mmu("nmt", eq, pt, smallPageShift, cfg);
    attach(mmu);
    ASSERT_TRUE(mmu.translate(base, 1));
    eq.run();
    ASSERT_EQ(mmu.liveSegments(), 1u);

    const UnmapResult um = pt.unmap(base + 4096);
    ASSERT_TRUE(um.unmapped);
    mmu.shootdown(base + 4096, um);
    EXPECT_EQ(mmu.liveSegments(), 0u);

    // The next access to the segment re-fetches.
    ASSERT_TRUE(mmu.translate(base + 2 * 4096, 2));
    eq.run();
    EXPECT_EQ(mmu.counts().walks, 2u);
}

TEST_F(ZooEngineTest, ZooEnginesBackpressureAtTheirWalkerBudget)
{
    mapPages(64);
    RangeMmuConfig r_cfg;
    r_cfg.numWalkers = 2;
    // Defeat eager construction so each page is its own miss: scatter
    // targets across far-apart segments of the mapped run.
    RangeMmu range("range", eq, pt, smallPageShift, r_cfg);
    attach(range);
    ASSERT_TRUE(range.translate(base + 0 * 4096, 1));
    ASSERT_TRUE(range.translate(base + 63 * 4096, 2));
    EXPECT_FALSE(range.translate(base + 32 * 4096, 3));
    EXPECT_EQ(range.counts().blockedIssues, 1u);
    const unsigned wakes_before = wakes;
    eq.run();
    EXPECT_GT(wakes, wakes_before); // retry signal on drain

    NmtConfig n_cfg;
    n_cfg.segmentShift = 0; // 1-page segments
    n_cfg.numUnits = 1;
    Nmt nmt("nmt", eq, pt, smallPageShift, n_cfg);
    attach(nmt);
    ASSERT_TRUE(nmt.translate(base, 10));
    EXPECT_FALSE(nmt.translate(base + 4096, 11));
    EXPECT_EQ(nmt.counts().blockedIssues, 1u);
    eq.run();
}

// ---------------------------------------------------------------------
// Coherence under demand paging (shootdown + fault, end to end)
// ---------------------------------------------------------------------

namespace {

/** The oversub_gather golden scenario on an arbitrary design. */
void
runOversubGather(const std::string &design)
{
    SystemConfig cfg;
    sweep::applyOverrides(cfg, {{"mmu.design", design},
                                {"preset", "dlrm_paging"},
                                {"name", "zoo"},
                                {"seed", "7"},
                                {"paging.enabled", "1"},
                                {"paging.policy", "clock"},
                                {"paging.residentLimitPages", "48"},
                                {"paging.faultLatency", "10000"}});
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.add(makeWorkloadFromSpecChecked(
                      "embedding:model=dlrm,mode=paging,batch=1"),
                  0);
    const SchedulerResult result = scheduler.run();
    ASSERT_TRUE(result.allDone) << design;

    const MmuCounts counts = system.mmu().counts();
    // Every accepted request (requests counts blocked retries too)
    // got exactly one response.
    EXPECT_EQ(counts.responses, counts.requests - counts.blockedIssues)
        << design;
    EXPECT_GT(counts.faults, 0u) << design;
    // The 48-page cap forces steady-state eviction: the design saw
    // shootdowns and survived them (no stale PA broke the walk
    // asserts, every request completed).
    EXPECT_GT(counts.shootdowns, 0u) << design;
}

} // namespace

TEST(ZooCoherence, RangeMmuSurvivesPagingChurn)
{
    runOversubGather("range");
}

TEST(ZooCoherence, PomTlbSurvivesPagingChurn)
{
    runOversubGather("pomtlb");
}

TEST(ZooCoherence, NmtSurvivesPagingChurn)
{
    runOversubGather("nmt");
}
