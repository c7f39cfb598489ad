/**
 * @file
 * Physical-frame allocator for one memory node (CPU or one NPU's HBM).
 */

#ifndef NEUMMU_VM_FRAME_ALLOCATOR_HH
#define NEUMMU_VM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace neummu {

/**
 * Free-list allocator over a contiguous physical address range.
 * Fresh allocations are carved from a bump cursor (so allocation
 * addresses are deterministic and match the historical bump layout
 * while nothing has been freed); free() returns ranges to a sorted,
 * coalescing free list that later allocations recycle first-fit.
 * Alignment gaps also land on the free list, so no byte of the node
 * is ever leaked.
 *
 * allocate() still models the "working set must fit" crash of
 * physically addressed NPUs (Section I), as a ConfigError that fails
 * the job; the demand-paging / eviction machinery uses tryAllocate()
 * and evicts on failure instead.
 */
class FrameAllocator
{
  public:
    /**
     * @param name Node name for error messages (e.g., "npu0.hbm").
     * Throws ConfigError for an empty or address-wrapping range.
     * @param base First physical address owned by this node.
     * @param size Bytes of physical memory at this node.
     */
    FrameAllocator(std::string name, Addr base, std::uint64_t size);

    /**
     * Allocate @p bytes aligned to @p align (power of two).
     * Throws ConfigError if the node is out of physical memory,
     * mirroring the crash an MMU-less NPU hits on oversubscription.
     */
    Addr allocate(std::uint64_t bytes, std::uint64_t align);

    /**
     * Failure-tolerant allocation: try the free list first (first fit, with
     * splitting), then the bump cursor.
     * @param[out] out Receives the frame base on success.
     * @return False when no free range fits (the paging engine evicts
     *         and retries instead of crashing).
     */
    bool tryAllocate(std::uint64_t bytes, std::uint64_t align,
                     Addr &out);

    /**
     * Return a previously allocated range for recycling. The range
     * must lie within this node and must not overlap anything still
     * free (double free is fatal).
     */
    void free(Addr addr, std::uint64_t bytes);

    /** True if an allocation of @p bytes (aligned) would fit. */
    bool wouldFit(std::uint64_t bytes, std::uint64_t align) const;

    Addr base() const { return _base; }
    std::uint64_t size() const { return _size; }
    /** Live (allocated and not yet freed) bytes. */
    std::uint64_t used() const { return (_next - _base) - _freeBytes; }
    std::uint64_t remaining() const { return _size - used(); }
    /** Bytes sitting on the free list (recyclable, tests). */
    std::uint64_t freeListBytes() const { return _freeBytes; }
    /** Free-list fragment count (tests/diagnostics). */
    std::size_t freeListBlocks() const { return _freeList.size(); }

    /** True if @p pa lies within this node's physical range. */
    bool
    owns(Addr pa) const
    {
        return pa >= _base && pa < _base + _size;
    }

  private:
    /** One free range [addr, addr + bytes). */
    struct Block
    {
        Addr addr;
        std::uint64_t bytes;
    };

    /**
     * Overflow-guarded round-up of @p a to @p align: false when the
     * aligned address would wrap the 64-bit address space (adversarial
     * base/align combinations near the top of the range).
     */
    static bool alignUpChecked(Addr a, std::uint64_t align, Addr &out);

    bool fitsInBlock(const Block &b, std::uint64_t bytes,
                     std::uint64_t align, Addr &start) const;

    std::string _name;
    Addr _base;
    std::uint64_t _size;
    Addr _next;
    /** Free ranges below _next, sorted by address, coalesced. */
    std::vector<Block> _freeList;
    std::uint64_t _freeBytes = 0;
};

} // namespace neummu

#endif // NEUMMU_VM_FRAME_ALLOCATOR_HH
