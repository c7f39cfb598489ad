#include "vm/address_space.hh"

#include "common/logging.hh"

namespace neummu {

AddressSpace::AddressSpace(PageTable &page_table, Addr base,
                           unsigned scatter_shift)
    : _pageTable(page_table), _cursor(base),
      _scatterShift(scatter_shift)
{
    if ((base & pageOffsetMask(largePageShift)) != 0)
        throw ConfigError("vaBase must be 2 MB aligned");
    if (scatter_shift != 0 &&
        (scatter_shift < largePageShift || scatter_shift >= vaBits))
        throw ConfigError("vaScatterShift " +
                          std::to_string(scatter_shift) +
                          " out of range (0, or " +
                          std::to_string(largePageShift) + ".." +
                          std::to_string(vaBits - 1) + ")");
}

Segment
AddressSpace::allocateUnbacked(const std::string &name, std::uint64_t bytes,
                               unsigned page_shift)
{
    NEUMMU_ASSERT(bytes > 0, "empty segment");
    if (_scatterShift != 0) {
        const Addr granule = Addr(1) << _scatterShift;
        _cursor = (_cursor + granule - 1) & ~(granule - 1);
        if (_cursor >= (Addr(1) << vaBits))
            throw ConfigError("scattered VA layout ran out of address "
                              "space (lower vaScatterShift)");
    }
    Segment seg;
    seg.name = name;
    seg.base = _cursor;
    seg.pageShift = page_shift;
    // Round the reservation up to whole pages and keep segment bases
    // 2 MB aligned so 4 KB and 2 MB experiments share one layout.
    const std::uint64_t page = pageSize(page_shift);
    seg.bytes = divCeil(bytes, page) * page;
    const std::uint64_t reserve =
        divCeil(seg.bytes, pageSize(largePageShift)) *
        pageSize(largePageShift);
    _cursor += reserve;
    _segments.push_back(seg);
    return seg;
}

Segment
AddressSpace::allocateBacked(const std::string &name, std::uint64_t bytes,
                             FrameAllocator &node, unsigned page_shift)
{
    Segment seg = allocateUnbacked(name, bytes, page_shift);
    const std::uint64_t page = pageSize(page_shift);
    for (Addr va = seg.base; va < seg.end(); va += page) {
        const Addr pa = node.allocate(page, page);
        _pageTable.map(va, pa, page_shift);
    }
    return seg;
}

Addr
AddressSpace::backPage(const Segment &segment, Addr va,
                       FrameAllocator &node)
{
    NEUMMU_ASSERT(segment.contains(va), "backPage outside segment");
    const std::uint64_t page = pageSize(segment.pageShift);
    const Addr va_base = pageBase(va, segment.pageShift);
    NEUMMU_ASSERT(!_pageTable.isMapped(va_base),
                  "backPage on an already-resident page");
    const Addr pa = node.allocate(page, page);
    _pageTable.map(va_base, pa, segment.pageShift);
    return pa;
}

} // namespace neummu
