/**
 * @file
 * Best-Fit-with-Coalescing GPU memory allocator.
 *
 * Reimplementation of the allocation algorithm TensorFlow uses for its GPU
 * pool (BFCAllocator): a single contiguous arena is carved into chunks kept
 * in size-class bins; allocation takes the smallest free chunk that fits
 * (splitting if profitable), deallocation coalesces with free neighbours.
 * Because Capuchin's passive mode is *triggered by this allocator failing*,
 * fidelity here matters: fragmentation decides when OOM fires.
 *
 * Addresses are plain offsets into a virtual arena — no real memory is
 * touched. The arena is sized by the device's memCapacity.
 *
 * Chunks live in a slab, linked in address order and found by offset
 * through an open-addressing index; free chunks also sit in size bins.
 * Each allocated chunk carries two tags for passive mode's victim search,
 * which reads them in one address-ordered walk: its owner and whether a
 * deferred free is posted for it.
 */

#ifndef CAPU_MEMORY_BFC_ALLOCATOR_HH
#define CAPU_MEMORY_BFC_ALLOCATOR_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "support/units.hh"

namespace capu
{

/** Opaque handle to an allocation (its arena offset). */
using MemHandle = std::uint64_t;

struct BfcStats
{
    std::uint64_t bytesInUse = 0;
    std::uint64_t peakBytesInUse = 0;
    std::uint64_t totalAllocs = 0;
    std::uint64_t totalFrees = 0;
    std::uint64_t failedAllocs = 0;
    std::uint64_t largestFreeChunk = 0;
    std::uint64_t freeChunkCount = 0;
    /** Chunk splits performed by allocate() (fragmentation pressure). */
    std::uint64_t splitCount = 0;
    /** Neighbour coalesces performed by deallocate(). */
    std::uint64_t mergeCount = 0;
};

/** Anti-fragmentation features (defaults on; ablation bench toggles). */
struct BfcOptions
{
    /** Place large chunks at the arena top, small at the bottom. */
    bool segregateLarge = true;
    /** Round large requests to geometric size classes (<= 12.5% waste). */
    bool sizeClasses = true;
};

class BfcAllocator
{
  public:
    /** @param capacity Arena size in bytes. */
    explicit BfcAllocator(std::uint64_t capacity, BfcOptions options = {});

    /** Placement preference for allocate(). */
    enum class Placement
    {
        Auto, ///< small requests low/best-fit, large requests high
        Low,  ///< force low best-fit (persistent weights at setup)
    };

    /**
     * Allocate `bytes` (rounded up to the 256-byte cudaMalloc granularity).
     * @return The chunk offset, or nullopt if no free chunk fits.
     */
    std::optional<MemHandle> allocate(std::uint64_t bytes,
                                      Placement placement = Placement::Auto);

    /** Release an allocation; coalesces with free neighbours. */
    void deallocate(MemHandle handle);

    /** Bytes currently allocated (after rounding). */
    std::uint64_t bytesInUse() const { return stats_.bytesInUse; }

    /** Free bytes (capacity - in use); may be fragmented. */
    std::uint64_t bytesFree() const { return capacity_ - stats_.bytesInUse; }

    std::uint64_t capacity() const { return capacity_; }

    /**
     * Whether an allocation of `bytes` would currently succeed
     * (checks an actual fitting chunk, not just total free bytes).
     */
    bool canAllocate(std::uint64_t bytes) const;

    /** Size of an outstanding allocation (rounded). */
    std::uint64_t allocationSize(MemHandle handle) const;

    const BfcStats &stats() const;

    /**
     * Fragmentation gauge: 1 - largestFreeChunk / bytesFree, i.e. the
     * share of free memory a single contiguous allocation cannot reach.
     * 0 when the arena is fully occupied (or one chunk holds all slack).
     */
    double
    fragmentation() const
    {
        std::uint64_t free_bytes = bytesFree();
        if (free_bytes == 0)
            return 0.0;
        return 1.0 - static_cast<double>(stats().largestFreeChunk) /
                         static_cast<double>(free_bytes);
    }

    /** One arena chunk, for fragmentation analysis and replay digests. */
    struct ChunkInfo
    {
        std::uint64_t offset;
        std::uint64_t size;
        bool free;
    };

    /** Current arena layout, ascending by offset. */
    std::vector<ChunkInfo> snapshot() const;

    /** Reset peak tracking to current occupancy. */
    void resetPeak();

    /**
     * Self-check: chunks tile the arena, the address links, the offset
     * index and the size bins agree, and only allocated chunks carry
     * tags. Panics if not.
     */
    void checkInvariants() const;

    /** Allocation request granularity (matches TF's kMinAllocationSize). */
    static constexpr std::uint64_t kAlignment = 256;

    /** Requests at least this big place at the high end of the arena. */
    static constexpr std::uint64_t kLargeThreshold = 64ull << 20;

    /** Owner tag of a chunk nobody claimed. */
    static constexpr std::uint32_t kNoOwner = ~std::uint32_t(0);

    /**
     * Tag the allocated chunk at `handle` with `owner` (kNoOwner clears
     * it) and return the tag it had. The executor tags each chunk with
     * the tensor whose handle points at it.
     */
    std::uint32_t tagOwner(MemHandle handle, std::uint32_t owner);

    /**
     * Mark the allocated chunk at `handle` as carrying a posted deferred
     * free; deallocate() clears the mark. Panics if the chunk is free,
     * already marked, or not a chunk start.
     */
    void markFreePending(MemHandle handle);

    /** Whether the chunk at `handle` carries a posted deferred free. */
    bool isFreePending(MemHandle handle) const;

    /** Link value of the first chunk's prev and the last chunk's next. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);

    /** One arena chunk and its tags, as an address-ordered walk sees it. */
    struct Chunk
    {
        std::uint64_t offset;
        std::uint64_t size;
        std::uint32_t owner; ///< tagOwner()'s tag; kNoOwner when free
        bool free;
        bool pendingFree; ///< markFreePending() until deallocate()
        /// Slab slots of the address neighbours, kNoSlot at the ends.
        std::uint32_t prev;
        std::uint32_t next;
    };

    /** Forward iterator over the chunks in address order. */
    class ChunkIterator
    {
      public:
        const Chunk &operator*() const { return (*slab_)[slot_]; }
        const Chunk *operator->() const { return &(*slab_)[slot_]; }

        ChunkIterator &
        operator++()
        {
            slot_ = (*slab_)[slot_].next;
            return *this;
        }

        bool
        operator==(const ChunkIterator &o) const
        {
            return slot_ == o.slot_;
        }

      private:
        friend class BfcAllocator;
        ChunkIterator(const std::vector<Chunk> *slab, std::uint32_t slot)
            : slab_(slab), slot_(slot)
        {
        }

        const std::vector<Chunk> *slab_;
        std::uint32_t slot_;
    };

    /** The allocator is a range over its chunks, lowest address first. */
    ChunkIterator begin() const { return {&slab_, kHead}; }
    ChunkIterator end() const { return {&slab_, kNoSlot}; }

  private:
    /// The chunk at offset 0 never moves or merges away, so the address
    /// list always starts at the slab's first slot.
    static constexpr std::uint32_t kHead = 0;
    static constexpr std::uint64_t kNoOffset = ~std::uint64_t(0);

    // Chunks in a slab, linked in address order; slots freed by coalescing
    // go to spare_ and are reused before the slab grows.
    std::vector<Chunk> slab_;
    std::vector<std::uint32_t> spare_;

    // Offset -> slot: open addressing over a power-of-two table, linear
    // probing, load at most 1/2, backward-shift deletion (no tombstones).
    struct IndexEntry
    {
        std::uint64_t offset; ///< kNoOffset marks an empty entry
        std::uint32_t slot;
    };
    std::vector<IndexEntry> index_;
    unsigned indexShift_ = 0; ///< 64 - log2(index_.size())

    // The free index: (size, offset) keys of the free chunks in 256 size
    // bins, by the size's power of two and then the quarter of that octave
    // it falls in (sizeBin() in the .cc), so every key of a bin is smaller
    // than every key of a higher bin. Each bin is a flat vector sorted by
    // key; erasing keeps its capacity, so once the bins have grown no
    // operation allocates. Best fit is lower_bound in the request's bin,
    // else the front of the next non-empty bin; the large path takes the
    // highest offset among the fitting keys, which all sit in the
    // request's bin or above.
    using FreeKey = std::pair<std::uint64_t, std::uint64_t>;
    static constexpr unsigned kBins = 256;
    std::array<std::vector<FreeKey>, kBins> bins_;
    // Bit b is set iff bins_[b] is non-empty.
    std::array<std::uint64_t, kBins / 64> binMask_{};
    std::size_t freeCount_ = 0; ///< keys over all bins

    std::uint64_t capacity_;
    BfcOptions options_;
    mutable BfcStats stats_;

    std::uint64_t roundUp(std::uint64_t bytes) const;
    void refreshDerivedStats() const;

    void freeInsert(std::uint64_t size, std::uint64_t offset);
    void freeErase(std::uint64_t size, std::uint64_t offset);
    /** Erase the key at `pos` of `bin`. */
    void freeEraseAt(unsigned bin, std::size_t pos);
    /** Lowest non-empty bin at or above `bin`, or kBins. */
    unsigned nonEmptyFrom(unsigned bin) const;
    /** Size of the largest free chunk, 0 when none is free. */
    std::uint64_t largestFree() const;

    std::size_t chunkCount() const { return slab_.size() - spare_.size(); }
    /** New chunk linked right after `slot`; returns its slot. */
    std::uint32_t linkAfter(std::uint32_t slot, std::uint64_t offset,
                            std::uint64_t size, bool free);
    /** Remove a coalesced-away chunk from the list and the index. */
    void unlink(std::uint32_t slot);

    std::size_t
    home(std::uint64_t offset) const
    {
        // Fibonacci hashing: the high product bits mix every offset bit.
        return static_cast<std::size_t>((offset * 0x9E3779B97F4A7C15ull) >>
                                        indexShift_);
    }
    /** Slot of the chunk starting at `offset`, or kNoSlot. */
    std::uint32_t findSlot(std::uint64_t offset) const;
    /** findSlot() that panics naming `what` when no chunk starts there. */
    std::uint32_t slotOf(std::uint64_t offset, const char *what) const;
    void indexInsert(std::uint64_t offset, std::uint32_t slot);
    void indexErase(std::uint64_t offset);
    void indexResize(std::size_t entries);
};

} // namespace capu

#endif // CAPU_MEMORY_BFC_ALLOCATOR_HH
