/**
 * @file
 * Per-request arena allocators. The simulator's request-scoped
 * collections -- a walker's PRMB fan-out list, a drain train's
 * response batch, a serving slot's wait queue -- are born, filled,
 * and emptied millions of times per run; giving each its own
 * heap-allocated container turns that churn into malloc/free pairs
 * on the hot path. These pools trade a handful of retained buffers
 * for zero steady-state allocation:
 *
 * - SlabArena<T>: a pool of fixed-capacity vectors ("slabs") with
 *   O(1) acquire/release by handle. Handles decouple a slab's
 *   lifetime from its producer: a page-table walker fills a slab
 *   with merged responses, then hands the handle to the drain train
 *   that empties it cycles later, after the walker itself has been
 *   recycled.
 *
 * - ArenaQueue<T>: a FIFO over one contiguous buffer with head
 *   compaction, replacing std::deque for request wait queues. The
 *   buffer is retained across empty/refill cycles, and the consumed
 *   prefix is compacted away only when it dominates the buffer, so
 *   pushes and pops are plain vector operations.
 */

#ifndef NEUMMU_COMMON_ARENA_HH
#define NEUMMU_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace neummu {

/**
 * Pool of recycled fixed-capacity vectors. Every slab is reserved to
 * slabCapacity() on first acquisition and keeps that storage through
 * release/reacquire cycles; the pool grows (allocating a new slab)
 * only when more slabs are live at once than ever before.
 */
template <typename T>
class SlabArena
{
  public:
    using Handle = std::uint32_t;
    static constexpr Handle npos = ~Handle(0);

    /**
     * @param slab_capacity Reserved element capacity per slab; size
     *        it so producers never outgrow it (an overflowing slab
     *        still works, it just reallocates).
     */
    explicit SlabArena(std::size_t slab_capacity)
        : _slabCapacity(slab_capacity)
    {
    }

    std::size_t slabCapacity() const { return _slabCapacity; }

    /** Take an empty slab with its capacity pre-reserved. */
    Handle
    acquire()
    {
        Handle h;
        if (!_free.empty()) {
            h = _free.back();
            _free.pop_back();
        } else {
            h = Handle(_slabs.size());
            _slabs.emplace_back();
            _slabs.back().reserve(_slabCapacity);
        }
        _live++;
        return h;
    }

    std::vector<T> &at(Handle h) { return _slabs[h]; }
    const std::vector<T> &at(Handle h) const { return _slabs[h]; }

    /** Return a slab to the pool (contents cleared, storage kept). */
    void
    release(Handle h)
    {
        NEUMMU_ASSERT(h < _slabs.size(), "bad slab handle");
        _slabs[h].clear();
        _free.push_back(h);
        NEUMMU_ASSERT(_live > 0, "slab release underflow");
        _live--;
    }

  private:
    std::size_t _slabCapacity;
    std::vector<std::vector<T>> _slabs;
    std::vector<Handle> _free;
    std::size_t _live = 0;
};

/**
 * FIFO queue over one contiguous retained buffer. Pops advance a
 * head index instead of shifting elements; the consumed prefix is
 * reclaimed when the queue empties (free -- the buffer just resets)
 * or compacted away once it exceeds both a fixed floor and the live
 * element count, keeping memory bounded under permanent backlog.
 */
template <typename T>
class ArenaQueue
{
  public:
    bool empty() const { return _head == _buf.size(); }
    std::size_t size() const { return _buf.size() - _head; }

    void
    push_back(T v)
    {
        _buf.push_back(std::move(v));
    }

    T &front() { return _buf[_head]; }
    const T &front() const { return _buf[_head]; }

    void
    pop_front()
    {
        NEUMMU_ASSERT(!empty(), "pop from empty queue");
        _head++;
        if (_head == _buf.size()) {
            _buf.clear();
            _head = 0;
        } else if (_head > compactFloor && _head > _buf.size() / 2) {
            _buf.erase(_buf.begin(),
                       _buf.begin() + std::ptrdiff_t(_head));
            _head = 0;
        }
    }

    void
    clear()
    {
        _buf.clear();
        _head = 0;
    }

  private:
    /** Don't bother compacting tiny consumed prefixes. */
    static constexpr std::size_t compactFloor = 64;

    std::vector<T> _buf;
    std::size_t _head = 0;
};

} // namespace neummu

#endif // NEUMMU_COMMON_ARENA_HH
