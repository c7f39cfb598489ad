/**
 * @file
 * Unit tests for the virtual-memory substrate: frame allocator,
 * x86-64 radix page table, and the segment-based address space.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"
#include "expect_throw.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

using namespace neummu;

namespace {

constexpr Addr nodeBase = Addr(1) << 40;

} // namespace

TEST(FrameAllocator, AllocatesAlignedFrames)
{
    FrameAllocator alloc("node", nodeBase, 1 * GiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b, a + 4096);
    EXPECT_EQ(alloc.used(), 8192u);
}

TEST(FrameAllocator, RespectsLargeAlignment)
{
    FrameAllocator alloc("node", nodeBase, 1 * GiB);
    alloc.allocate(4096, 4096);
    const Addr big = alloc.allocate(2 * MiB, 2 * MiB);
    EXPECT_EQ(big % (2 * MiB), 0u);
}

TEST(FrameAllocator, OwnershipAndCapacity)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    EXPECT_TRUE(alloc.owns(nodeBase));
    EXPECT_TRUE(alloc.owns(nodeBase + 1 * MiB - 1));
    EXPECT_FALSE(alloc.owns(nodeBase + 1 * MiB));
    EXPECT_FALSE(alloc.owns(0));
    EXPECT_TRUE(alloc.wouldFit(1 * MiB, 4096));
    alloc.allocate(512 * KiB, 4096);
    EXPECT_FALSE(alloc.wouldFit(1 * MiB, 4096));
    EXPECT_EQ(alloc.remaining(), 512 * KiB);
}

TEST(FrameAllocator, OversubscriptionThrows)
{
    FrameAllocator alloc("node", nodeBase, 64 * KiB);
    // An MMU-less NPU whose working set exceeds physical memory
    // crashes (Section I); the allocator models that with a typed
    // error, so only the job that ran out fails.
    expectThrowWith<ConfigError>(
        [&] { alloc.allocate(128 * KiB, 4096); }, "out of physical memory");
    EXPECT_EQ(alloc.remaining(), 64 * KiB);
}

TEST(FrameAllocator, TryAllocateFailsNonFatally)
{
    FrameAllocator alloc("node", nodeBase, 64 * KiB);
    Addr a = invalidAddr;
    EXPECT_TRUE(alloc.tryAllocate(64 * KiB, 4096, a));
    Addr b = invalidAddr;
    EXPECT_FALSE(alloc.tryAllocate(4096, 4096, b));
    EXPECT_FALSE(alloc.wouldFit(4096, 4096));
}

TEST(FrameAllocator, FreedFramesAreRecycled)
{
    FrameAllocator alloc("node", nodeBase, 64 * KiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    alloc.allocate(56 * KiB, 4096); // node now full
    EXPECT_FALSE(alloc.wouldFit(4096, 4096));

    alloc.free(a, 4096);
    EXPECT_EQ(alloc.freeListBytes(), 4096u);
    EXPECT_EQ(alloc.used(), 60 * KiB);
    EXPECT_TRUE(alloc.wouldFit(4096, 4096));
    // First fit hands the freed frame back.
    EXPECT_EQ(alloc.allocate(4096, 4096), a);
    EXPECT_EQ(alloc.freeListBytes(), 0u);
    (void)b;
}

TEST(FrameAllocator, FreeListCoalescesNeighbors)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    const Addr c = alloc.allocate(4096, 4096);
    alloc.allocate(4096, 4096); // plug: keeps the hole interior
    alloc.free(a, 4096);
    alloc.free(c, 4096);
    EXPECT_EQ(alloc.freeListBlocks(), 2u);
    alloc.free(b, 4096); // bridges a and c into one block
    EXPECT_EQ(alloc.freeListBlocks(), 1u);
    EXPECT_EQ(alloc.freeListBytes(), 3 * 4096u);
    // The coalesced block serves a larger aligned request in place.
    EXPECT_EQ(alloc.allocate(8 * KiB, 8 * KiB), a);
}

TEST(FrameAllocator, TrailingFreeReabsorbsIntoBumpCursor)
{
    // Out-of-order release at the allocation frontier: a free range
    // ending exactly at the bump cursor merges back into the bump
    // region, so the union of both serves one big allocation. Before
    // the fix the cursor and the trailing block stayed split and the
    // 8 KiB request below failed despite 8 KiB being free.
    FrameAllocator alloc("node", nodeBase, 16 * KiB);
    const Addr a = alloc.allocate(4096, 4096);
    const Addr b = alloc.allocate(4096, 4096);
    alloc.free(b, 4096); // trailing: reabsorbed, not listed
    EXPECT_EQ(alloc.freeListBlocks(), 0u);
    EXPECT_EQ(alloc.freeListBytes(), 0u);
    EXPECT_EQ(alloc.used(), 4096u);
    Addr big = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(12 * KiB, 4096, big));
    EXPECT_EQ(big, b);

    // Freeing the rest reabsorbs transitively through coalescing:
    // the cursor returns to the node base.
    alloc.free(big, 12 * KiB);
    alloc.free(a, 4096);
    EXPECT_EQ(alloc.freeListBlocks(), 0u);
    EXPECT_EQ(alloc.used(), 0u);
    Addr again = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(16 * KiB, 4096, again));
    EXPECT_EQ(again, a);
}

TEST(FrameAllocator, SplitLeavesHeadAndTailFree)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    alloc.allocate(4096, 4096); // offset the hole off node alignment
    const Addr a = alloc.allocate(60 * KiB, 4096);
    alloc.allocate(4096, 4096); // plug so the hole is interior
    alloc.free(a, 60 * KiB);
    // Carve an aligned 4 KiB out of the middle of the hole: the
    // block's start (base + 4 KiB) is not 32 KiB aligned, so the fit
    // splits off both a head and a tail remainder.
    Addr mid = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(4096, 32 * KiB, mid));
    EXPECT_EQ(mid % (32 * KiB), 0u);
    EXPECT_GT(mid, a);
    EXPECT_EQ(alloc.freeListBytes(), 60 * KiB - 4096u);
    EXPECT_EQ(alloc.freeListBlocks(), 2u);
}

TEST(FrameAllocator, AlignmentGapsLandOnTheFreeList)
{
    FrameAllocator alloc("node", nodeBase, 1 * MiB);
    alloc.allocate(4096, 4096);
    // The 2 MiB-aligned... (1 MiB node: use 64 KiB alignment) carve
    // leaves the pad below it reusable instead of leaked.
    const Addr big = alloc.allocate(4096, 64 * KiB);
    EXPECT_EQ(big % (64 * KiB), 0u);
    EXPECT_EQ(alloc.freeListBytes(), 64 * KiB - 4096u);
    EXPECT_EQ(alloc.used(), 2 * 4096u);
    // The gap serves later small allocations.
    const Addr small = alloc.allocate(4096, 4096);
    EXPECT_LT(small, big);
}

TEST(FrameAllocator, ChurnWithMixedAlignmentsLeaksNothing)
{
    // Tenant-churn shape: waves of mixed-size, mixed-alignment
    // allocations released out of order (even-indexed first, then
    // odd). Every wave must reconcile exactly -- all bytes back, the
    // free list fully coalesced into the bump region -- or eviction
    // churn in long serving runs would fragment the node until a
    // large tensor no longer fits.
    FrameAllocator alloc("node", nodeBase, 64 * MiB);
    const std::uint64_t sizes[] = {4096, 16 * KiB, 4096, 2 * MiB,
                                   64 * KiB, 4096, 256 * KiB, 8 * KiB};
    const std::uint64_t aligns[] = {4096, 4096, 64 * KiB, 2 * MiB,
                                    4096, 16 * KiB, 4096, 8 * KiB};
    for (unsigned wave = 0; wave < 8; wave++) {
        std::vector<std::pair<Addr, std::uint64_t>> live;
        for (unsigned i = 0; i < 8; i++) {
            const std::uint64_t bytes = sizes[(i + wave) % 8];
            Addr a = invalidAddr;
            ASSERT_TRUE(
                alloc.tryAllocate(bytes, aligns[(i * 3 + wave) % 8],
                                  a));
            live.push_back({a, bytes});
        }
        for (std::size_t i = 0; i < live.size(); i += 2)
            alloc.free(live[i].first, live[i].second);
        for (std::size_t i = 1; i < live.size(); i += 2)
            alloc.free(live[i].first, live[i].second);
        // Full reconciliation: nothing live, nothing stranded.
        EXPECT_EQ(alloc.used(), 0u) << "wave " << wave;
        EXPECT_EQ(alloc.freeListBlocks(), 0u) << "wave " << wave;
        EXPECT_EQ(alloc.freeListBytes(), 0u) << "wave " << wave;
    }
    // The whole node is one contiguous range again.
    Addr all = invalidAddr;
    ASSERT_TRUE(alloc.tryAllocate(64 * MiB, 4096, all));
    EXPECT_EQ(all, nodeBase);
}

TEST(FrameAllocatorDeath, DoubleFreeIsFatal)
{
    EXPECT_DEATH(
        {
            FrameAllocator inner("node", nodeBase, 64 * KiB);
            const Addr a = inner.allocate(4096, 4096);
            inner.allocate(4096, 4096); // keep a below the cursor
            inner.free(a, 4096);
            inner.free(a, 4096);
        },
        "double free");
}

TEST(FrameAllocator, AdversarialAlignmentCannotWrapTheCursor)
{
    // A node at the very top of the 64-bit address space: rounding
    // the cursor up to a huge alignment overflows 2^64. The old bump
    // arithmetic wrapped and "allocated" a bogus low address; the
    // guarded path must report out-of-memory instead.
    const std::uint64_t size = 1 * MiB;
    const Addr top_base = ~Addr(0) - 2 * size + 1;
    const Addr base = top_base & ~(Addr(1 * MiB) - 1); // aligned, near top
    FrameAllocator alloc("top", base, size);
    alloc.allocate(4096, 4096);
    Addr out = invalidAddr;
    const std::uint64_t huge_align = Addr(1) << 63;
    EXPECT_FALSE(alloc.wouldFit(4096, huge_align));
    EXPECT_FALSE(alloc.tryAllocate(4096, huge_align, out));
    EXPECT_EQ(out, invalidAddr);
    // Ordinary allocations still work fine up there.
    EXPECT_TRUE(alloc.tryAllocate(4096, 4096, out));
    EXPECT_TRUE(alloc.owns(out));
}

TEST(FrameAllocator, WrappingOrEmptyPhysicalRangeIsRejected)
{
    // base + size overflowing 2^64 would make every bounds check in
    // the allocator meaningless; the constructor refuses it, and an
    // empty node (hostDramBytes=0) too.
    expectThrowWith<ConfigError>(
        [] { FrameAllocator("wrap", ~Addr(0) - 4096, 2 * MiB); }, "wraps");
    expectThrowWith<ConfigError>([] { FrameAllocator("empty", nodeBase, 0); },
                                 "empty physical node");
}

class PageTableTest : public ::testing::Test
{
  protected:
    PageTableTest() : node("host", nodeBase, 4 * GiB), pt(node) {}

    FrameAllocator node;
    PageTable pt;
};

TEST_F(PageTableTest, UnmappedWalkIsInvalid)
{
    const WalkResult wr = pt.walk(0x1234567000);
    EXPECT_FALSE(wr.valid);
    EXPECT_FALSE(pt.isMapped(0x1234567000));
}

TEST_F(PageTableTest, MapsAndWalksSmallPage)
{
    const Addr va = Addr(0x42) << 30 | 0x5000;
    const Addr pa = node.allocate(4096, 4096);
    pt.map(va, pa, smallPageShift);
    const WalkResult wr = pt.walk(va | 0x123);
    ASSERT_TRUE(wr.valid);
    EXPECT_EQ(wr.pa, pa | 0x123);
    EXPECT_EQ(wr.pageShift, smallPageShift);
    EXPECT_EQ(wr.levels, 4u);
}

TEST_F(PageTableTest, MapsAndWalksLargePage)
{
    const Addr va = Addr(0x55) << 30;
    const Addr pa = node.allocate(2 * MiB, 2 * MiB);
    pt.map(va, pa, largePageShift);
    const WalkResult wr = pt.walk(va + 0x123456);
    ASSERT_TRUE(wr.valid);
    EXPECT_EQ(wr.pa, pa + 0x123456);
    EXPECT_EQ(wr.pageShift, largePageShift);
    EXPECT_EQ(wr.levels, 3u); // 2 MB pages stop at L2
}

TEST_F(PageTableTest, WalkReportsEntryPathAddresses)
{
    const Addr va = Addr(0x7) << 39 | Addr(0x8) << 30 | Addr(0x9) << 21 |
                    Addr(0xa) << 12;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    const WalkResult wr = pt.walk(va);
    ASSERT_TRUE(wr.valid);
    // Root entry lives at rootPa + L4 index * 8.
    EXPECT_EQ(wr.entryPa[0], pt.rootPa() + 0x7 * 8);
    EXPECT_EQ(wr.nodePa[0], pt.rootPa());
    // Each step's entry sits inside its node's frame.
    for (unsigned i = 0; i < wr.levels; i++) {
        EXPECT_EQ(pageBase(wr.entryPa[i], smallPageShift), wr.nodePa[i]);
    }
    // Distinct levels live in distinct nodes.
    EXPECT_NE(wr.nodePa[0], wr.nodePa[1]);
    EXPECT_NE(wr.nodePa[1], wr.nodePa[2]);
    EXPECT_NE(wr.nodePa[2], wr.nodePa[3]);
}

TEST_F(PageTableTest, NeighboringPagesShareUpperPath)
{
    const Addr va = Addr(0x11) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(va + 4096, node.allocate(4096, 4096), smallPageShift);
    const WalkResult a = pt.walk(va);
    const WalkResult b = pt.walk(va + 4096);
    // Same L4/L3/L2 entries; only the L1 entry differs.
    EXPECT_EQ(a.entryPa[0], b.entryPa[0]);
    EXPECT_EQ(a.entryPa[1], b.entryPa[1]);
    EXPECT_EQ(a.entryPa[2], b.entryPa[2]);
    EXPECT_NE(a.entryPa[3], b.entryPa[3]);
}

TEST_F(PageTableTest, UnmapRemovesLeaf)
{
    const Addr va = Addr(0x21) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    EXPECT_TRUE(pt.isMapped(va));
    EXPECT_EQ(pt.mappedPages(), 1u);
    pt.unmap(va);
    EXPECT_FALSE(pt.isMapped(va));
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_FALSE(pt.unmap(va).unmapped); // idempotent
}

TEST_F(PageTableTest, UnmapReportsFrameAndPath)
{
    const Addr va = Addr(0x26) << 30;
    const Addr frame = node.allocate(4096, 4096);
    pt.map(va, frame, smallPageShift);
    const WalkResult before = pt.walk(va);
    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.frame, frame);
    EXPECT_EQ(um.pageShift, smallPageShift);
    ASSERT_TRUE(um.path.valid);
    EXPECT_EQ(um.path.levels, 4u);
    for (unsigned i = 0; i < 4; i++) {
        EXPECT_EQ(um.path.entryPa[i], before.entryPa[i]);
        EXPECT_EQ(um.path.nodePa[i], before.nodePa[i]);
    }
}

TEST_F(PageTableTest, UnmapReclaimsEmptyInteriorNodes)
{
    const Addr va = Addr(0x28) << 30;
    const std::uint64_t used_before = node.used();
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    // Lone mapping in its own L4 subtree: three interior nodes
    // (L3/L2/L1 tables) plus the leaf frame were allocated.
    EXPECT_EQ(node.used(), used_before + 4 * 4096);

    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.freedNodes, 3u);
    EXPECT_EQ(um.firstFreedStep, 1u); // everything below the root
    // Deepest node (the L1 table) is reported first.
    EXPECT_EQ(um.freedNodePa[0], um.path.nodePa[3]);
    EXPECT_EQ(um.freedNodePa[1], um.path.nodePa[2]);
    EXPECT_EQ(um.freedNodePa[2], um.path.nodePa[1]);
    // The node frames went back to the allocator (the leaf frame is
    // the caller's to free).
    EXPECT_EQ(node.used(), used_before + 4096);
    // The three node frames sat at the allocation frontier, so the
    // allocator reabsorbed them into the bump cursor (no fragments).
    EXPECT_EQ(node.freeListBytes(), 0u);

    // Remapping rebuilds the subtree from recycled frames.
    pt.map(va, um.frame, smallPageShift);
    EXPECT_TRUE(pt.isMapped(va));
    EXPECT_EQ(node.used(), used_before + 4 * 4096);
}

TEST_F(PageTableTest, UnmapKeepsSharedInteriorNodes)
{
    const Addr va = Addr(0x29) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(va + 4096, node.allocate(4096, 4096), smallPageShift);
    // Siblings share L4..L1 nodes: removing one frees nothing.
    const UnmapResult um = pt.unmap(va);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.freedNodes, 0u);
    EXPECT_TRUE(pt.isMapped(va + 4096));
    // Removing the last sibling collapses the subtree.
    const UnmapResult um2 = pt.unmap(va + 4096);
    EXPECT_EQ(um2.freedNodes, 3u);
    EXPECT_FALSE(pt.isMapped(va + 4096));
}

TEST_F(PageTableTest, PartialReclaimStopsAtPopulatedLevels)
{
    // Two pages sharing L4/L3 but with distinct L2 entries: unmapping
    // one reclaims its private L1 table only.
    const Addr va = Addr(0x2a) << 30;
    const Addr sib = va + (Addr(1) << 21); // next L2 entry
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(sib, node.allocate(4096, 4096), smallPageShift);
    const UnmapResult um = pt.unmap(va);
    EXPECT_EQ(um.freedNodes, 1u);
    EXPECT_EQ(um.firstFreedStep, 3u); // just the L1 table
    EXPECT_EQ(um.freedNodePa[0], um.path.nodePa[3]);
    EXPECT_TRUE(pt.isMapped(sib));
}

TEST_F(PageTableTest, LargePageUnmapReclaims)
{
    const Addr va = Addr(0x2b) << 30;
    const Addr pa = node.allocate(2 * MiB, 2 * MiB);
    pt.map(va, pa, largePageShift);
    const UnmapResult um = pt.unmap(va + 0x12345);
    ASSERT_TRUE(um.unmapped);
    EXPECT_EQ(um.frame, pa);
    EXPECT_EQ(um.pageShift, largePageShift);
    EXPECT_EQ(um.freedNodes, 2u); // L3 and L2 tables
    EXPECT_FALSE(pt.isMapped(va));
}

TEST_F(PageTableTest, ChurnReusesNodeFramesDeterministically)
{
    // Map/unmap churn across a scattered VA range must not grow the
    // node allocator: every subtree's frames are recycled.
    const std::uint64_t used_before = node.used();
    for (unsigned round = 0; round < 8; round++) {
        for (unsigned i = 0; i < 16; i++) {
            const Addr va = (Addr(0x100 + i) << 30) | (Addr(round) << 21);
            pt.map(va, node.allocate(4096, 4096), smallPageShift);
        }
        for (unsigned i = 0; i < 16; i++) {
            const Addr va = (Addr(0x100 + i) << 30) | (Addr(round) << 21);
            const UnmapResult um = pt.unmap(va);
            ASSERT_TRUE(um.unmapped);
            node.free(um.frame, 4096);
        }
    }
    EXPECT_EQ(pt.mappedPages(), 0u);
    EXPECT_EQ(node.used(), used_before);
}

namespace {

/** Field-for-field equality of two walk results. */
void
expectSameWalk(const WalkResult &got, const WalkResult &want)
{
    EXPECT_EQ(got.valid, want.valid);
    EXPECT_EQ(got.pa, want.pa);
    EXPECT_EQ(got.pageShift, want.pageShift);
    EXPECT_EQ(got.levels, want.levels);
    EXPECT_EQ(got.entryPa, want.entryPa);
    EXPECT_EQ(got.nodePa, want.nodePa);
}

} // namespace

TEST_F(PageTableTest, UnmapPathEqualsPreUnmapWalk)
{
    // unmap() descends once; its path must be the walk() it replaced,
    // and it must count the walk-cache hit that walk() would have.
    const auto check = [&](Addr va) {
        const WalkResult before = pt.walk(va);
        const std::uint64_t hits = pt.walkCacheHits();
        const UnmapResult um = pt.unmap(va);
        expectSameWalk(um.path, before);
        EXPECT_EQ(um.unmapped, before.valid);
        EXPECT_EQ(pt.walkCacheHits(), hits + (before.valid ? 1 : 0));
        return um;
    };

    // A lone 4 KB page.
    const Addr small = Addr(0x31) << 30 | 0x7000;
    pt.map(small, node.allocate(4096, 4096), smallPageShift);
    EXPECT_EQ(check(small | 0x123).path.levels, 4u);

    // A 2 MB page, unmapped through an interior offset.
    const Addr large = Addr(0x32) << 30;
    pt.map(large, node.allocate(2 * MiB, 2 * MiB), largePageShift);
    EXPECT_EQ(check(large + 0x12345).path.levels, 3u);

    // A partially shared subtree: the siblings share L4/L3 only.
    const Addr va = Addr(0x34) << 30;
    const Addr sib = va + (Addr(1) << 21);
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    pt.map(sib, node.allocate(4096, 4096), smallPageShift);
    EXPECT_EQ(check(va).freedNodes, 1u);

    // Never-mapped VAs stop where walk() stops: in the root, and in
    // the sibling's live L1 table.
    const UnmapResult root_miss = check(Addr(0x7f) << 39);
    EXPECT_FALSE(root_miss.unmapped);
    EXPECT_EQ(root_miss.path.levels, 1u);
    const UnmapResult leaf_miss = check(sib + 4096);
    EXPECT_FALSE(leaf_miss.unmapped);
    EXPECT_EQ(leaf_miss.path.levels, 4u);
    EXPECT_TRUE(pt.isMapped(sib));
}

TEST_F(PageTableTest, RecycledNodesKeepAllocatorOrder)
{
    // Leaf frames come from their own allocator, so the node
    // allocator sees only node frames; reclaimed nodes must still take
    // fresh frames from it in the same order, so a remap in the same
    // order rebuilds every node at the same PA.
    FrameAllocator data("data", Addr(1) << 44, 4 * GiB);
    struct Mapping
    {
        Addr va;
        unsigned shift;
    };
    std::vector<Mapping> order;
    for (unsigned i = 0; i < 30; i++) {
        order.push_back({Addr(1 + i % 3) << 39 | Addr(i % 4) << 30 |
                             Addr(i % 5) << 21 | Addr(i) << 12,
                         smallPageShift});
        if (i % 4 == 3) {
            const unsigned j = i / 4;
            order.push_back({Addr(1 + j % 3) << 39 | Addr(j % 4) << 30 |
                                 Addr(200 + j) << 21,
                             largePageShift});
        }
    }

    // The reference model: page base -> (frame, shift).
    std::map<Addr, std::pair<Addr, unsigned>> model;
    const auto checkAll = [&] {
        for (const Mapping &m : order) {
            const Addr probe = m.va | 0x88;
            const WalkResult wr = pt.walk(probe);
            const auto it = model.find(m.va);
            ASSERT_EQ(wr.valid, it != model.end()) << std::hex << m.va;
            if (wr.valid) {
                EXPECT_EQ(wr.pa, it->second.first | 0x88);
                EXPECT_EQ(wr.pageShift, it->second.second);
            }
        }
        EXPECT_EQ(pt.mappedPages(), model.size());
    };
    const auto mapAll = [&] {
        std::vector<std::array<Addr, pageTableLevels>> node_pa;
        for (const Mapping &m : order) {
            const std::uint64_t bytes = pageSize(m.shift);
            const Addr frame = data.allocate(bytes, bytes);
            pt.map(m.va, frame, m.shift);
            model[m.va] = {frame, m.shift};
            checkAll();
        }
        for (const Mapping &m : order)
            node_pa.push_back(pt.walk(m.va).nodePa);
        return node_pa;
    };
    const auto unmapAll = [&](unsigned stride) {
        // Visit the mappings in a scattered order (stride coprime to
        // the count) so subtrees empty out interleaved.
        for (std::size_t k = 0; k < order.size(); k++) {
            const Mapping &m = order[(k * stride) % order.size()];
            const UnmapResult um = pt.unmap(m.va);
            ASSERT_TRUE(um.unmapped);
            data.free(um.frame, pageSize(um.pageShift));
            model.erase(m.va);
            checkAll();
        }
    };

    ASSERT_EQ(order.size(), 37u); // prime: every stride below works
    const std::uint64_t used_before = node.used();
    const auto first = mapAll();
    for (unsigned stride : {1u, 7u, 36u}) {
        unmapAll(stride);
        EXPECT_EQ(node.used(), used_before);
        EXPECT_EQ(mapAll(), first) << "stride " << stride;
    }
}

TEST_F(PageTableTest, ManyMappingsAllResolve)
{
    const Addr base = Addr(0x33) << 30;
    for (unsigned i = 0; i < 1024; i++) {
        pt.map(base + Addr(i) * 4096, node.allocate(4096, 4096),
               smallPageShift);
    }
    EXPECT_EQ(pt.mappedPages(), 1024u);
    for (unsigned i = 0; i < 1024; i++)
        EXPECT_TRUE(pt.walk(base + Addr(i) * 4096 + 42).valid);
}

TEST_F(PageTableTest, DeathOnDoubleMap)
{
    const Addr va = Addr(0x44) << 30;
    pt.map(va, node.allocate(4096, 4096), smallPageShift);
    EXPECT_DEATH(pt.map(va, node.allocate(4096, 4096), smallPageShift),
                 "double map");
}

TEST_F(PageTableTest, DeathOnUnalignedMap)
{
    EXPECT_DEATH(pt.map(0x123, 0x456000, smallPageShift), "unaligned");
}

TEST(AddressSpace, SegmentsAreDisjointAndAligned)
{
    FrameAllocator node("host", nodeBase, 4 * GiB);
    PageTable pt(node);
    AddressSpace vas(pt);
    const Segment a = vas.allocateUnbacked("a", 5000, smallPageShift);
    const Segment b = vas.allocateUnbacked("b", 3 * MiB, smallPageShift);
    EXPECT_EQ(a.base % (2 * MiB), 0u);
    EXPECT_EQ(b.base % (2 * MiB), 0u);
    EXPECT_GE(b.base, a.base + a.bytes);
    EXPECT_EQ(a.bytes % 4096, 0u);
    EXPECT_TRUE(a.contains(a.base));
    EXPECT_FALSE(a.contains(b.base));
}

TEST(AddressSpace, BackedSegmentIsFullyMapped)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    FrameAllocator npu("npu", Addr(2) << 40, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt);
    const Segment seg =
        vas.allocateBacked("w", 64 * KiB, npu, smallPageShift);
    for (Addr va = seg.base; va < seg.end(); va += 4096) {
        const WalkResult wr = pt.walk(va);
        ASSERT_TRUE(wr.valid);
        EXPECT_TRUE(npu.owns(wr.pa));
    }
}

TEST(AddressSpace, BackPageMapsExactlyOnePage)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    FrameAllocator npu("npu", Addr(2) << 40, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt);
    const Segment seg =
        vas.allocateUnbacked("t", 1 * MiB, smallPageShift);
    EXPECT_FALSE(pt.isMapped(seg.base + 8192));
    vas.backPage(seg, seg.base + 8192 + 17, npu);
    EXPECT_TRUE(pt.isMapped(seg.base + 8192));
    EXPECT_FALSE(pt.isMapped(seg.base));
    EXPECT_FALSE(pt.isMapped(seg.base + 4096));
}

TEST(AddressSpace, LargePageSegment)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    FrameAllocator npu("npu", Addr(2) << 40, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt);
    const Segment seg =
        vas.allocateBacked("w", 3 * MiB, npu, largePageShift);
    EXPECT_EQ(seg.bytes, 4 * MiB); // rounded to whole 2 MB pages
    EXPECT_TRUE(pt.walk(seg.base + 2 * MiB + 5).valid);
    EXPECT_EQ(pt.walk(seg.base).pageShift, largePageShift);
}

TEST(AddressSpace, ScatteredSegmentsLandInDistinctL4Subtrees)
{
    FrameAllocator host("host", nodeBase, 4 * GiB);
    PageTable pt(host);
    AddressSpace vas(pt, Addr(0x100) << 30, 39);
    const Segment a = vas.allocateUnbacked("a", 1 * MiB, smallPageShift);
    const Segment b = vas.allocateUnbacked("b", 1 * MiB, smallPageShift);
    const Segment c = vas.allocateUnbacked("c", 1 * MiB, smallPageShift);
    EXPECT_NE(radixIndex(a.base, 4), radixIndex(b.base, 4));
    EXPECT_NE(radixIndex(b.base, 4), radixIndex(c.base, 4));
    // Packed layout keeps everything under one L4 entry by contrast.
    AddressSpace packed(pt, Addr(0x200) << 30);
    const Segment p1 = packed.allocateUnbacked("p1", 1 * MiB,
                                               smallPageShift);
    const Segment p2 = packed.allocateUnbacked("p2", 1 * MiB,
                                               smallPageShift);
    EXPECT_EQ(radixIndex(p1.base, 4), radixIndex(p2.base, 4));
}
