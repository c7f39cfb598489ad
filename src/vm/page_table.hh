/**
 * @file
 * x86-64-style hierarchical 4-level page table (Section II-C).
 *
 * The paged virtual memory is a radix tree: 48 translated VA bits,
 * 12-bit page offset, four 9-bit indices (L4..L1). 2 MB large pages
 * terminate the walk at L2 (three levels). Each tree node is backed by
 * a physical frame so walkers can report the physical address of every
 * entry they touch -- this is what the UPTC (physically tagged MMU
 * cache) and the walk energy accounting key off.
 */

#ifndef NEUMMU_VM_PAGE_TABLE_HH
#define NEUMMU_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "common/units.hh"
#include "vm/frame_allocator.hh"

namespace neummu {

/** Result of walking the page table for one virtual address. */
struct WalkResult
{
    /** True when the address is mapped. */
    bool valid = false;
    /** Translated physical address (page frame base + page offset). */
    Addr pa = invalidAddr;
    /** log2 page size of the mapping (12 or 21). */
    unsigned pageShift = smallPageShift;
    /** Number of tree levels traversed (4 for 4 KB, 3 for 2 MB). */
    unsigned levels = 0;
    /**
     * Physical address of the page-table entry read at each step,
     * ordered from the root; entries [0, levels) are meaningful.
     */
    std::array<Addr, pageTableLevels> entryPa{};
    /**
     * Physical base address of the node visited at each step (the
     * table containing entryPa[i]); entries [0, levels) are valid.
     */
    std::array<Addr, pageTableLevels> nodePa{};
};

/**
 * Outcome of one unmap(): what the caller needs to recycle the leaf
 * frame and to shoot stale state out of every translation structure
 * (TLB, TPreg/TPC, the PA-tagged UPTC) coherently.
 */
struct UnmapResult
{
    /** True when a mapping was actually removed. */
    bool unmapped = false;
    /** Physical frame base the leaf pointed at (caller reclaims it). */
    Addr frame = invalidAddr;
    /** Granularity of the removed mapping (12 or 21). */
    unsigned pageShift = smallPageShift;
    /** Pre-unmap translation path (entry/node PAs of every level). */
    WalkResult path;
    /** Interior tree nodes reclaimed because they became empty. */
    unsigned freedNodes = 0;
    /** Physical bases of the reclaimed nodes (deepest first). */
    std::array<Addr, pageTableLevels> freedNodePa{};
    /**
     * Walk step (0 = root) of the shallowest reclaimed node; paths
     * sharing the VA prefix above this depth now dangle in
     * virtually indexed path caches. Meaningful when freedNodes > 0.
     */
    unsigned firstFreedStep = 0;
};

/**
 * Functional radix page table. map()/unmap() maintain the tree;
 * walk() returns the full translation path so timing models (PTWs)
 * can charge per-level latency/energy and feed translation caches.
 *
 * Node ownership: an arena owns every host-side Node; tree links are
 * plain non-owning pointers. unmap() reclaims interior nodes that
 * become empty: their frames go straight back to the node allocator
 * (the free-list recycling path) while the Node objects wait on a
 * free list for the next allocNode(). Every node frame is still taken
 * from and returned to the FrameAllocator at the same points, so node
 * PAs (and everything keyed off them) do not depend on the recycling.
 */
class PageTable
{
  public:
    /**
     * @param node_allocator Frame allocator used to back tree nodes
     *        (typically the host node, which owns the page tables).
     */
    explicit PageTable(FrameAllocator &node_allocator);
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Map the page containing @p va to the frame at @p pa.
     * @p page_shift selects 4 KB (12) or 2 MB (21) granularity; both
     * @p va and @p pa must be aligned to it.
     */
    void map(Addr va, Addr pa, unsigned page_shift);

    /**
     * Remove the mapping covering @p va (no-op when unmapped),
     * reclaiming interior nodes that became empty. The result carries
     * the pre-unmap walk path so callers can free the leaf frame and
     * invalidate translation caches coherently.
     */
    UnmapResult unmap(Addr va);

    /** Translate @p va, reporting the full walk path. */
    WalkResult walk(Addr va) const;

    /** Walks served from the one-entry cache (diagnostics). */
    std::uint64_t walkCacheHits() const { return _walkCacheHits; }

    /** True when @p va has a valid mapping. */
    bool isMapped(Addr va) const;

    /** Number of leaf mappings currently installed. */
    std::uint64_t mappedPages() const { return _mappedPages; }

    /** Physical address of the root (CR3-equivalent). */
    Addr rootPa() const;

  private:
    struct Node;
    struct Entry;

    Node *allocNode();

    FrameAllocator &_alloc;
    /** Owns every Node ever built; live and free-listed alike. */
    std::vector<std::unique_ptr<Node>> _arena;
    /** Reclaimed nodes: every entry invalid, no children. */
    std::vector<Node *> _freeNodes;
    Node *_root = nullptr;
    std::uint64_t _mappedPages = 0;

    /**
     * One-entry walk cache, keyed at 4 KB granularity. The
     * translation stream walks the same page back to back (a tile's
     * bursts, an oracle MMU's per-request walks), and the tree is
     * immutable between map()/unmap() calls -- which drop the entry
     * -- so replaying the last result (with the page offset patched
     * in) is exact. Mutable because walk() is logically const; all
     * walkers live on the hub event domain, so there is no
     * cross-thread access.
     */
    mutable Addr _cachedVpn = invalidAddr;
    mutable WalkResult _cachedWalk;
    mutable std::uint64_t _walkCacheHits = 0;
};

} // namespace neummu

#endif // NEUMMU_VM_PAGE_TABLE_HH
