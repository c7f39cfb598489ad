#include "vm/frame_allocator.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace neummu {

FrameAllocator::FrameAllocator(std::string name, Addr base,
                               std::uint64_t size)
    : _name(std::move(name)), _base(base), _size(size), _next(base)
{
    if (size == 0)
        throw ConfigError(_name + ": empty physical node (hostDramBytes "
                          "and npuHbmBytes must be > 0)");
    if (base > std::numeric_limits<Addr>::max() - size)
        throw ConfigError(_name + ": physical range wraps the address "
                          "space");
}

bool
FrameAllocator::alignUpChecked(Addr a, std::uint64_t align, Addr &out)
{
    NEUMMU_ASSERT(align != 0 && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
    if (a > std::numeric_limits<Addr>::max() - (align - 1))
        return false;
    out = (a + align - 1) & ~(align - 1);
    return true;
}

bool
FrameAllocator::fitsInBlock(const Block &b, std::uint64_t bytes,
                            std::uint64_t align, Addr &start) const
{
    if (!alignUpChecked(b.addr, align, start))
        return false;
    // All arithmetic stays subtractive so an aligned start past the
    // block end (or an oversized request) can never wrap.
    return start >= b.addr && start - b.addr <= b.bytes &&
           bytes <= b.bytes - (start - b.addr);
}

bool
FrameAllocator::tryAllocate(std::uint64_t bytes, std::uint64_t align,
                            Addr &out)
{
    NEUMMU_ASSERT(bytes > 0, "empty allocation");

    // Recycle first: first fit over the sorted free list, splitting
    // off head/tail remainders so alignment never leaks bytes.
    for (std::size_t i = 0; i < _freeList.size(); i++) {
        Block b = _freeList[i];
        Addr start;
        if (!fitsInBlock(b, bytes, align, start))
            continue;
        const std::uint64_t head = start - b.addr;
        const std::uint64_t tail = b.bytes - head - bytes;
        if (head == 0 && tail == 0) {
            _freeList.erase(_freeList.begin() +
                            std::ptrdiff_t(i));
        } else if (head != 0 && tail != 0) {
            _freeList[i].bytes = head;
            _freeList.insert(
                _freeList.begin() + std::ptrdiff_t(i) + 1,
                Block{start + bytes, tail});
        } else if (head != 0) {
            _freeList[i].bytes = head;
        } else {
            _freeList[i] = Block{start + bytes, tail};
        }
        _freeBytes -= bytes;
        out = start;
        return true;
    }

    // Fresh carve from the bump cursor; the alignment gap (if any)
    // becomes the highest free block, keeping the list sorted.
    Addr start;
    if (!alignUpChecked(_next, align, start))
        return false;
    const Addr end = _base + _size;
    if (start < _next || start > end || bytes > end - start)
        return false;
    if (start != _next) {
        _freeList.push_back(Block{_next, start - _next});
        _freeBytes += start - _next;
    }
    _next = start + bytes;
    out = start;
    return true;
}

Addr
FrameAllocator::allocate(std::uint64_t bytes, std::uint64_t align)
{
    Addr out;
    if (!tryAllocate(bytes, align, out)) {
        throw ConfigError(_name + ": out of physical memory (requested " +
                          std::to_string(bytes) + " bytes, " +
                          std::to_string(remaining()) + " remaining); "
                          "an MMU-less NPU would crash here (Section I)");
    }
    return out;
}

void
FrameAllocator::free(Addr addr, std::uint64_t bytes)
{
    NEUMMU_ASSERT(bytes > 0, "empty free");
    NEUMMU_ASSERT(owns(addr) && bytes <= _base + _size - addr,
                  _name + ": free() outside the node's range");
    NEUMMU_ASSERT(addr + bytes <= _next,
                  _name + ": free() of never-allocated bytes");

    // Insert sorted, then coalesce with both neighbors.
    const auto it = std::lower_bound(
        _freeList.begin(), _freeList.end(), addr,
        [](const Block &b, Addr a) { return b.addr < a; });
    NEUMMU_ASSERT((it == _freeList.end() || addr + bytes <= it->addr) &&
                      (it == _freeList.begin() ||
                       (it - 1)->addr + (it - 1)->bytes <= addr),
                  _name + ": double free / overlapping free");
    const std::size_t idx = std::size_t(it - _freeList.begin());
    _freeList.insert(it, Block{addr, bytes});
    _freeBytes += bytes;

    // Merge with the successor, then the predecessor.
    if (idx + 1 < _freeList.size() &&
        _freeList[idx].addr + _freeList[idx].bytes ==
            _freeList[idx + 1].addr) {
        _freeList[idx].bytes += _freeList[idx + 1].bytes;
        _freeList.erase(_freeList.begin() + std::ptrdiff_t(idx) + 1);
    }
    if (idx > 0 && _freeList[idx - 1].addr + _freeList[idx - 1].bytes ==
                       _freeList[idx].addr) {
        _freeList[idx - 1].bytes += _freeList[idx].bytes;
        _freeList.erase(_freeList.begin() + std::ptrdiff_t(idx));
    }

    // Reabsorb a trailing free block that ends exactly at the bump
    // cursor: the block and the untouched bump region are one
    // contiguous free range, but split across the list and the cursor
    // an allocation larger than either piece would fail even though
    // their union fits. (Neighbor coalescing guarantees at most one
    // block can touch _next, so a single check suffices.)
    if (!_freeList.empty()) {
        const Block &last = _freeList.back();
        if (last.addr + last.bytes == _next) {
            _next = last.addr;
            _freeBytes -= last.bytes;
            _freeList.pop_back();
        }
    }
}

bool
FrameAllocator::wouldFit(std::uint64_t bytes, std::uint64_t align) const
{
    if (bytes == 0)
        return true;
    Addr start;
    for (const Block &b : _freeList) {
        if (fitsInBlock(b, bytes, align, start))
            return true;
    }
    if (!alignUpChecked(_next, align, start))
        return false;
    const Addr end = _base + _size;
    return start >= _next && start <= end && bytes <= end - start;
}

} // namespace neummu
