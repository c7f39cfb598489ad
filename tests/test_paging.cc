/**
 * @file
 * Page lifecycle tests: ResidentSet victim selection (CLOCK / LRU),
 * the PagingEngine's timed evict+fetch loop, system-wide shootdown
 * coherence under oversubscription, and the end-to-end acceptance
 * scenario (embedding gather at 50% residency completes with
 * nonzero evictions/shootdowns and every translation resolving to
 * the page's current frame).
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/random.hh"
#include "common/units.hh"
#include "system/embedding_system.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "vm/resident_set.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

// --- ResidentSet ----------------------------------------------------

TEST(ResidentSet, LruEvictsInRecencyOrder)
{
    ResidentSet set(EvictionPolicy::Lru);
    for (Addr p = 1; p <= 4; p++)
        set.insert(p * 0x1000);
    set.touch(1 * 0x1000); // 1 becomes MRU; LRU order now 2,3,4,1
    EXPECT_EQ(set.evictVictim(), 2 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), 3 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), 4 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), 1 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), invalidAddr);
    EXPECT_EQ(set.size(), 0u);
}

TEST(ResidentSet, LruSkipsPinnedPages)
{
    ResidentSet set(EvictionPolicy::Lru);
    for (Addr p = 1; p <= 3; p++)
        set.insert(p * 0x1000);
    const Addr victim = set.evictVictim(
        [](Addr page) { return page != 1 * 0x1000; });
    EXPECT_EQ(victim, 2 * 0x1000u);
    // Everything pinned: no victim, set unchanged.
    EXPECT_EQ(set.evictVictim([](Addr) { return false; }), invalidAddr);
    EXPECT_EQ(set.size(), 2u);
}

TEST(ResidentSet, ClockGivesSecondChances)
{
    ResidentSet set(EvictionPolicy::Clock);
    for (Addr p = 1; p <= 3; p++)
        set.insert(p * 0x1000); // all referenced
    // First selection sweeps reference bits before taking the oldest.
    EXPECT_EQ(set.evictVictim(), 1 * 0x1000u);
    // Touch 2: it survives the next sweep, 3 goes first.
    set.touch(2 * 0x1000);
    EXPECT_EQ(set.evictVictim(), 3 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), 2 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), invalidAddr);
}

TEST(ResidentSet, ClockSkipsPinnedWithoutClearingTheirBit)
{
    ResidentSet set(EvictionPolicy::Clock);
    set.insert(0x1000);
    set.insert(0x2000);
    // Pin the older page: the sweep passes over it (bit intact) and
    // takes the other one once its own bit clears.
    EXPECT_EQ(set.evictVictim([](Addr p) { return p != 0x1000; }),
              0x2000u);
    EXPECT_TRUE(set.contains(0x1000));
    // Unpinned again: the survivor still has its reference bit, so
    // selection clears it first, then evicts it.
    EXPECT_EQ(set.evictVictim(), 0x1000u);
}

TEST(ResidentSet, RemoveKeepsClockHandSane)
{
    ResidentSet set(EvictionPolicy::Clock);
    for (Addr p = 1; p <= 4; p++)
        set.insert(p * 0x1000);
    // Park the hand mid-ring by evicting once, then remove pages
    // around it; further selections must neither crash nor repeat.
    EXPECT_EQ(set.evictVictim(), 1 * 0x1000u);
    EXPECT_TRUE(set.remove(2 * 0x1000));
    EXPECT_TRUE(set.remove(4 * 0x1000));
    EXPECT_FALSE(set.remove(4 * 0x1000));
    EXPECT_EQ(set.evictVictim(), 3 * 0x1000u);
    EXPECT_EQ(set.evictVictim(), invalidAddr);
}

TEST(ResidentSet, SlotsAreRecycledAcrossChurn)
{
    for (const EvictionPolicy policy :
         {EvictionPolicy::Clock, EvictionPolicy::Lru}) {
        ResidentSet set(policy);
        for (unsigned round = 0; round < 64; round++) {
            for (Addr p = 0; p < 16; p++)
                set.insert(0x100000 + p * 0x1000);
            for (Addr p = 0; p < 16; p++)
                EXPECT_NE(set.evictVictim(), invalidAddr);
        }
        EXPECT_EQ(set.size(), 0u);
    }
}

TEST(ResidentSet, PolicyNamesRoundTrip)
{
    EXPECT_EQ(evictionPolicyFromName("clock"), EvictionPolicy::Clock);
    EXPECT_EQ(evictionPolicyFromName("LRU"), EvictionPolicy::Lru);
    EXPECT_EQ(evictionPolicyName(EvictionPolicy::Clock), "clock");
    EXPECT_EQ(evictionPolicyName(EvictionPolicy::Lru), "lru");
}

// --- PagingEngine ---------------------------------------------------

namespace {

/** A small oversubscribed machine driven through the real MMU. */
SystemConfig
pagingSystemConfig(const std::string &design,
                   std::uint64_t resident_pages,
                   EvictionPolicy policy = EvictionPolicy::Clock)
{
    SystemConfig cfg;
    cfg.name = "pgtest";
    cfg.seed = 11;
    cfg.mmuDesign = design;
    cfg.paging.enabled = true;
    cfg.paging.policy = policy;
    cfg.paging.residentLimitBytes = resident_pages * 4096;
    cfg.paging.faultLatency = 200;
    return cfg;
}

} // namespace

TEST(PagingEngine, SyntheticOversubscriptionReachesSteadyState)
{
    SystemConfig cfg = pagingSystemConfig("neummu", 16);
    System sys(cfg);
    Scheduler sched(sys);
    sched.add(makeWorkloadFromSpec(
        "synthetic:pattern=uniform,footprint=512k,accesses=512,"
        "bytes=256,paged=1"));
    const SchedulerResult result = sched.run();
    EXPECT_TRUE(result.allDone);

    PagingEngine &pe = sys.pagingEngine();
    // 128 pages of footprint against a 16-page cap: steady churn.
    EXPECT_GT(pe.faults(), 100u);
    EXPECT_GT(pe.evictions(), 50u);
    EXPECT_EQ(pe.shootdowns(), pe.evictions());
    EXPECT_GT(pe.stallCycles(), 0u);
    EXPECT_EQ(sys.mmu().counts().shootdowns, pe.shootdowns());
    // The soft cap keeps residency near the target even with the
    // whole walker pool in flight.
    EXPECT_LE(pe.residentSet().size(),
              pe.maxResidentPages() + pe.overcommits());
}

TEST(PagingEngine, EvictionsRecycleFramesInsteadOfGrowingTheNode)
{
    SystemConfig cfg = pagingSystemConfig("iommu", 8);
    // A node barely larger than the cap: without recycling the
    // allocator would run out and fatal().
    cfg.npuHbmBytes = 64 * 4096;
    System sys(cfg);
    Scheduler sched(sys);
    sched.add(makeWorkloadFromSpec(
        "synthetic:pattern=stride,footprint=1m,accesses=256,"
        "bytes=4096,stride=4096,paged=1"));
    const SchedulerResult result = sched.run();
    EXPECT_TRUE(result.allDone);
    EXPECT_GT(sys.pagingEngine().evictions(), 200u);
    EXPECT_LE(sys.hbmNode(0).used(), 64 * 4096u);
}

TEST(PagingEngine, InstallResidentPrepopulatesAndEvictsOverCap)
{
    SystemConfig cfg = pagingSystemConfig("neummu", 4);
    System sys(cfg);
    PagingEngine &pe = sys.pagingEngine();
    const Segment seg = sys.addressSpace().allocateUnbacked(
        "warm", 64 * 4096, smallPageShift);
    for (unsigned i = 0; i < 6; i++)
        pe.installResident(seg.base + i * 4096);
    EXPECT_EQ(pe.residentSet().size(), 4u);
    EXPECT_EQ(pe.evictions(), 2u);
    EXPECT_EQ(pe.faults(), 0u); // setup-time installs are not faults
    // The evicted pages are unmapped, the resident ones walk fine.
    EXPECT_FALSE(sys.pageTable().isMapped(seg.base));
    EXPECT_TRUE(sys.pageTable().isMapped(seg.base + 5 * 4096));
}

TEST(PagingEngine, EveryResponseResolvesToTheCurrentFrame)
{
    // The acceptance property, checked response by response: drive
    // the MMU directly over an oversubscribed demand-paged region and
    // verify at delivery time that each PA matches the page table's
    // current mapping -- across evictions, shootdowns, and squashed
    // walks.
    SystemConfig cfg = pagingSystemConfig("neummu", 8);
    cfg.mmu = neuMmuConfig();
    cfg.mmu->numPtws = 4;
    cfg.mmu->prmbSlots = 2;
    System sys(cfg);
    const Segment seg = sys.addressSpace().allocateUnbacked(
        "hot", 64 * 4096, smallPageShift);

    unsigned delivered = 0;
    sys.mmu().setResponseCallback(
        [&](const TranslationResponse &resp) {
            const WalkResult current = sys.pageTable().walk(resp.va);
            ASSERT_TRUE(current.valid);
            EXPECT_EQ(resp.pa, current.pa)
                << "stale translation for va " << resp.va;
            delivered++;
        });

    // A deterministic stream hopping across 32 pages, reissued
    // through the wake callback when the port blocks.
    Rng rng(42);
    std::vector<Addr> stream;
    for (unsigned i = 0; i < 512; i++)
        stream.push_back(seg.base + rng.range(32) * 4096 +
                         rng.range(4096));
    std::size_t cursor = 0;
    const auto pump = [&] {
        while (cursor < stream.size() &&
               sys.mmu().translate(stream[cursor], cursor)) {
            cursor++;
        }
    };
    sys.mmu().setWakeCallback(pump);
    pump();
    sys.run();
    // Re-pump in case the final wake landed with the queue empty.
    while (cursor < stream.size()) {
        pump();
        sys.run();
    }

    EXPECT_EQ(delivered, stream.size());
    EXPECT_GT(sys.pagingEngine().evictions(), 0u);
    EXPECT_GT(sys.pagingEngine().shootdowns(), 0u);
}

// --- end-to-end acceptance scenario ---------------------------------

TEST(PagingEngine, OversubscribedEmbeddingGatherAcceptance)
{
    // HBM capacity at 50% of the touched table footprint: the gather
    // must complete without fatal(), with nonzero paging.evictions
    // and paging.shootdowns (the ISSUE acceptance criteria).
    const EmbeddingModelSpec spec = makeDlrm();
    const EmbeddingSystemConfig cluster;

    const auto run = [&](std::uint64_t limit_pages) {
        SystemConfig cfg =
            demandPagingSystemConfig(spec, cluster,
                                     "neummu");
        cfg.name = "accept";
        cfg.seed = 11;
        cfg.paging.enabled = true;
        cfg.paging.residentLimitBytes = limit_pages * 4096;
        auto sys = std::make_unique<System>(cfg);
        Scheduler sched(*sys);
        sched.add(std::make_unique<EmbeddingWorkload>(
                      demandPagingWorkloadConfig(spec, 2, cluster)),
                  0);
        const SchedulerResult r = sched.run();
        EXPECT_TRUE(r.allDone);
        return sys;
    };

    // Reference: uncapped run counts the touched pages.
    auto ref = run(0);
    const std::uint64_t touched =
        ref->pagingEngine().residentPeakPages();
    ASSERT_GT(touched, 8u);
    EXPECT_EQ(ref->pagingEngine().evictions(), 0u);

    // 50% residency.
    auto half = run(touched / 2);
    PagingEngine &pe = half->pagingEngine();
    EXPECT_GT(pe.evictions(), 0u);
    EXPECT_GT(pe.shootdowns(), 0u);
    EXPECT_GT(pe.faults(), ref->pagingEngine().faults());
    // Stats flow into the registry under "<sys>.paging" (populated
    // on dump, like every refreshStats-pattern component).
    std::ostringstream dump;
    half->dumpStatsJson(dump);
    const stats::Group *g =
        half->statsRegistry().find("accept.paging");
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->scalars().at("evictions").value(),
              double(pe.evictions()));
    EXPECT_EQ(g->scalars().at("shootdowns").value(),
              double(pe.shootdowns()));
}

TEST(PagingEngine, LegacyDemandPagingPathUnchangedWithoutEngine)
{
    // With paging disabled the EmbeddingWorkload still installs its
    // own fault handler (the golden-pinned configuration).
    const EmbeddingModelSpec spec = makeDlrm();
    const EmbeddingSystemConfig cluster;
    const DemandPagingResult r =
        runDemandPaging(spec, 2, "neummu", smallPageShift,
                        cluster, 11);
    EXPECT_GT(r.faults, 0u);
    EXPECT_GT(r.migratedBytes, 0u);
}
