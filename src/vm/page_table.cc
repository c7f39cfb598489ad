#include "vm/page_table.hh"

#include "common/logging.hh"

namespace neummu {

/** One page-table entry: either a pointer to a child or a leaf PFN. */
struct PageTable::Entry
{
    bool valid = false;
    bool leaf = false;
    /** Child node (interior); owned by the PageTable's arena. */
    Node *child = nullptr;
    /** Physical frame base (leaf). */
    Addr frame = invalidAddr;
};

/** One radix-tree node: 512 entries backed by a 4 KB physical frame. */
struct PageTable::Node
{
    Addr pa = invalidAddr;
    /** Valid entries; an interior node is reclaimed when this hits 0. */
    unsigned live = 0;
    std::array<Entry, 512> entries;
};

PageTable::PageTable(FrameAllocator &node_allocator)
    : _alloc(node_allocator)
{
    _root = allocNode();
}

PageTable::~PageTable() = default;

PageTable::Node *
PageTable::allocNode()
{
    const Addr pa = _alloc.allocate(pageSize(smallPageShift),
                                    pageSize(smallPageShift));
    // A node is reclaimed only once live hits 0, so a free-listed one
    // already has every entry invalid with no child: no re-zeroing.
    Node *node;
    if (!_freeNodes.empty()) {
        node = _freeNodes.back();
        _freeNodes.pop_back();
    } else {
        _arena.push_back(std::make_unique<Node>());
        node = _arena.back().get();
    }
    node->pa = pa;
    return node;
}

Addr
PageTable::rootPa() const
{
    return _root->pa;
}

void
PageTable::map(Addr va, Addr pa, unsigned page_shift)
{
    if (page_shift != smallPageShift && page_shift != largePageShift)
        throw ConfigError("pageShift " + std::to_string(page_shift) +
                          " is not supported (12 = 4 KB or 21 = 2 MB "
                          "pages)");
    NEUMMU_ASSERT((va & pageOffsetMask(page_shift)) == 0,
                  "unaligned virtual address in map()");
    NEUMMU_ASSERT((pa & pageOffsetMask(page_shift)) == 0,
                  "unaligned physical address in map()");

    // 2 MB pages terminate at L2 (level index 2), 4 KB pages at L1.
    const unsigned leaf_level = (page_shift == largePageShift) ? 2 : 1;

    Node *node = _root;
    for (unsigned level = pageTableLevels; level > leaf_level; level--) {
        Entry &e = node->entries[radixIndex(va, level)];
        NEUMMU_ASSERT(!(e.valid && e.leaf),
                      "mapping under an existing large-page leaf");
        if (!e.valid) {
            e.valid = true;
            e.leaf = false;
            e.child = allocNode();
            node->live++;
        }
        node = e.child;
    }

    Entry &leaf = node->entries[radixIndex(va, leaf_level)];
    NEUMMU_ASSERT(!leaf.valid, "double map of the same virtual page");
    leaf.valid = true;
    leaf.leaf = true;
    leaf.frame = pa;
    node->live++;
    _mappedPages++;
    _cachedVpn = invalidAddr;
}

UnmapResult
PageTable::unmap(Addr va)
{
    UnmapResult res;
    // The walk cache only ever holds a mapped page, so a hit here is
    // the hit a pre-unmap walk() would have counted.
    if ((va >> smallPageShift) == _cachedVpn)
        _walkCacheHits++;

    // One descent records the walk path and the node chain, so empty
    // interiors can be reclaimed bottom-up once the leaf is gone.
    WalkResult &path = res.path;
    std::array<Node *, pageTableLevels> chain{};
    std::array<unsigned, pageTableLevels> idx{};
    Node *node = _root;
    unsigned depth = 0;
    for (unsigned level = pageTableLevels; level >= 1; level--) {
        const unsigned i = radixIndex(va, level);
        path.nodePa[depth] = node->pa;
        path.entryPa[depth] = node->pa + Addr(i) * 8;
        chain[depth] = node;
        idx[depth] = i;
        path.levels = ++depth;
        const Entry &e = node->entries[i];
        if (!e.valid)
            return res; // invalid: levels reflects steps taken
        if (e.leaf) {
            path.valid = true;
            path.pageShift = (level == 2) ? largePageShift : smallPageShift;
            path.pa = e.frame | (va & pageOffsetMask(path.pageShift));
            break;
        }
        node = e.child;
    }
    NEUMMU_ASSERT(path.valid, "page-table unmap ran past L1 without a leaf");
    res.unmapped = true;
    res.pageShift = path.pageShift;

    Entry &leaf = chain[depth - 1]->entries[idx[depth - 1]];
    res.frame = leaf.frame;
    leaf.valid = false;
    leaf.leaf = false;
    leaf.frame = invalidAddr;
    chain[depth - 1]->live--;
    _mappedPages--;

    // Reclaim emptied interior nodes (never the root): free the
    // backing frame, park the node, and drop the parent's entry.
    for (unsigned step = depth - 1; step >= 1; step--) {
        Node *n = chain[step];
        if (n->live != 0)
            break;
        res.freedNodePa[res.freedNodes++] = n->pa;
        res.firstFreedStep = step;
        _alloc.free(n->pa, pageSize(smallPageShift));
        _freeNodes.push_back(n);
        Entry &parent = chain[step - 1]->entries[idx[step - 1]];
        parent.child = nullptr;
        parent.valid = false;
        chain[step - 1]->live--;
    }
    _cachedVpn = invalidAddr;
    return res;
}

WalkResult
PageTable::walk(Addr va) const
{
    if ((va >> smallPageShift) == _cachedVpn) {
        _walkCacheHits++;
        WalkResult result = _cachedWalk;
        result.pa =
            (result.pa & ~pageOffsetMask(result.pageShift)) |
            (va & pageOffsetMask(result.pageShift));
        return result;
    }

    WalkResult result;
    const Node *node = _root;
    for (unsigned level = pageTableLevels; level >= 1; level--) {
        const unsigned idx = radixIndex(va, level);
        const Entry &e = node->entries[idx];

        const unsigned step = pageTableLevels - level;
        result.nodePa[step] = node->pa;
        result.entryPa[step] = node->pa + Addr(idx) * 8;
        result.levels = step + 1;

        if (!e.valid)
            return result; // invalid: levels reflects steps taken

        if (e.leaf) {
            const unsigned shift =
                (level == 2) ? largePageShift : smallPageShift;
            result.valid = true;
            result.pageShift = shift;
            result.pa = e.frame | (va & pageOffsetMask(shift));
            _cachedVpn = va >> smallPageShift;
            _cachedWalk = result;
            return result;
        }
        node = e.child;
    }
    NEUMMU_PANIC("page-table walk ran past L1 without a leaf");
}

bool
PageTable::isMapped(Addr va) const
{
    return walk(va).valid;
}

} // namespace neummu
