#include "memory/bfc_allocator.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "support/logging.hh"

namespace capu
{

BfcAllocator::BfcAllocator(std::uint64_t capacity, BfcOptions options)
    : capacity_(capacity / kAlignment * kAlignment), options_(options)
{
    if (capacity_ == 0)
        fatal("BfcAllocator capacity must be at least {} bytes", kAlignment);
    slab_.push_back(Chunk{0, capacity_, kNoOwner, true, false, kNoSlot,
                          kNoSlot});
    indexResize(16);
    indexInsert(0, kHead);
    freeBySize_.emplace(capacity_, 0);
    freeByOffset_.emplace(0, capacity_);
}

std::uint64_t
BfcAllocator::roundUp(std::uint64_t bytes) const
{
    if (bytes == 0)
        bytes = 1;
    // Large requests round to a geometric size class (granularity = the
    // largest power of two <= size/8, i.e. <= 12.5% overhead): feature
    // maps and gradients of similar layers then share identical chunk
    // sizes, so a freed chunk is reusable verbatim by the next large
    // request instead of leaving an awkward sliver. This buys resistance
    // to the fragmentation that otherwise caps the achievable batch size
    // under heavy eviction churn.
    if (options_.sizeClasses && bytes >= kLargeThreshold) {
        std::uint64_t grain = std::uint64_t(1)
                              << (63 - __builtin_clzll(bytes >> 3));
        return (bytes + grain - 1) / grain * grain;
    }
    return (bytes + kAlignment - 1) / kAlignment * kAlignment;
}

std::optional<MemHandle>
BfcAllocator::allocate(std::uint64_t bytes, Placement placement)
{
    std::uint64_t need = roundUp(bytes);

    // Segregated placement: small requests take the best-fitting chunk and
    // carve from its bottom; large requests take the highest-addressed
    // fitting chunk and carve from its top. Keeping multi-GiB feature maps
    // and gradients at one end of the arena and the small churn (stats,
    // masks, workspaces) at the other sharply reduces the fragmentation
    // that otherwise blocks large contiguous allocations under eviction
    // traffic. (TensorFlow's BFC is single-ended; this is an engineering
    // improvement we document in DESIGN.md.)
    bool large = options_.segregateLarge &&
                 placement == Placement::Auto && need >= kLargeThreshold;

    // The chosen free chunk's entries in both free indexes.
    auto by_size = freeBySize_.end();
    auto by_offset = freeByOffset_.end();
    if (large) {
        // Highest-addressed fitting chunk: reverse walk of the offset
        // index stops at the first chunk big enough — same chunk the old
        // full scan of freeBySize_ selected, found in O(1) when the arena
        // top is free (the common case under segregated placement).
        for (auto it = freeByOffset_.rbegin(); it != freeByOffset_.rend();
             ++it) {
            if (it->second >= need) {
                by_offset = std::prev(it.base());
                by_size = freeBySize_.find({it->second, it->first});
                break;
            }
        }
    } else {
        by_size = freeBySize_.lower_bound({need, 0});
        if (by_size != freeBySize_.end())
            by_offset = freeByOffset_.find(by_size->second);
    }
    if (by_size == freeBySize_.end()) {
        ++stats_.failedAllocs;
        return std::nullopt;
    }

    auto [size, offset] = *by_size;
    std::uint32_t slot = slotOf(offset, "allocate");
    // Split if the remainder is big enough to be useful on its own
    // (TF splits when the leftover exceeds the min allocation size).
    bool split = size - need >= kAlignment;
    MemHandle result = offset;
    freeBySize_.erase(by_size);
    if (large && split) {
        // Carve from the top: the chunk stays free as the low remainder.
        std::uint64_t rest = size - need;
        freeBySize_.emplace(rest, offset);
        by_offset->second = rest;
        slab_[slot].size = rest;
        result = offset + rest;
        linkAfter(slot, result, need, false);
    } else {
        auto after = freeByOffset_.erase(by_offset);
        slab_[slot].free = false;
        if (split) {
            slab_[slot].size = need;
            linkAfter(slot, offset + need, size - need, true);
            freeBySize_.emplace(size - need, offset + need);
            // The remainder takes the offset-index position just vacated.
            freeByOffset_.emplace_hint(after, offset + need, size - need);
        }
    }
    if (split)
        ++stats_.splitCount;

    stats_.bytesInUse += split ? need : size;
    stats_.peakBytesInUse =
        std::max(stats_.peakBytesInUse, stats_.bytesInUse);
    ++stats_.totalAllocs;
    return result;
}

void
BfcAllocator::deallocate(MemHandle handle)
{
    std::uint32_t slot = findSlot(handle);
    if (slot == kNoSlot || slab_[slot].free)
        panic("deallocate of unknown or already-free handle {}", handle);

    Chunk &chunk = slab_[slot];
    if (chunk.owner != kNoOwner)
        panic("deallocate of handle {} still tagged with owner {}", handle,
              chunk.owner);
    stats_.bytesInUse -= chunk.size;
    ++stats_.totalFrees;
    chunk.free = true;
    chunk.pendingFree = false;

    // Where the chunk's offset-index entry goes if it stays free on its
    // own: the position of a next neighbour it absorbs.
    auto hint = freeByOffset_.end();
    // Coalesce with next neighbour.
    if (chunk.next != kNoSlot && slab_[chunk.next].free) {
        const Chunk &next = slab_[chunk.next];
        freeBySize_.erase({next.size, next.offset});
        hint = freeByOffset_.erase(freeByOffset_.find(next.offset));
        chunk.size += next.size;
        unlink(chunk.next);
        ++stats_.mergeCount;
    }
    // Coalesce with previous neighbour.
    if (chunk.prev != kNoSlot && slab_[chunk.prev].free) {
        Chunk &prev = slab_[chunk.prev];
        freeBySize_.erase({prev.size, prev.offset});
        prev.size += chunk.size;
        freeBySize_.emplace(prev.size, prev.offset);
        freeByOffset_.find(prev.offset)->second = prev.size;
        unlink(slot);
        ++stats_.mergeCount;
        return;
    }
    freeBySize_.emplace(chunk.size, chunk.offset);
    freeByOffset_.emplace_hint(hint, chunk.offset, chunk.size);
}

bool
BfcAllocator::canAllocate(std::uint64_t bytes) const
{
    std::uint64_t need = roundUp(bytes);
    auto it = freeBySize_.lower_bound({need, 0});
    return it != freeBySize_.end();
}

std::uint64_t
BfcAllocator::allocationSize(MemHandle handle) const
{
    std::uint32_t slot = findSlot(handle);
    if (slot == kNoSlot || slab_[slot].free)
        panic("allocationSize of unknown handle {}", handle);
    return slab_[slot].size;
}

std::uint32_t
BfcAllocator::tagOwner(MemHandle handle, std::uint32_t owner)
{
    Chunk &chunk = slab_[slotOf(handle, "tagOwner")];
    if (chunk.free)
        panic("tagOwner of free chunk {}", handle);
    return std::exchange(chunk.owner, owner);
}

void
BfcAllocator::markFreePending(MemHandle handle)
{
    std::uint32_t slot = findSlot(handle);
    if (slot == kNoSlot || slab_[slot].free || slab_[slot].pendingFree)
        panic("deferred free of unknown, free or already free-pending "
              "handle {}", handle);
    slab_[slot].pendingFree = true;
}

bool
BfcAllocator::isFreePending(MemHandle handle) const
{
    std::uint32_t slot = findSlot(handle);
    return slot != kNoSlot && slab_[slot].pendingFree;
}

void
BfcAllocator::refreshDerivedStats() const
{
    stats_.largestFreeChunk =
        freeBySize_.empty() ? 0 : freeBySize_.rbegin()->first;
    stats_.freeChunkCount = freeBySize_.size();
}

const BfcStats &
BfcAllocator::stats() const
{
    refreshDerivedStats();
    return stats_;
}

std::vector<BfcAllocator::ChunkInfo>
BfcAllocator::snapshot() const
{
    std::vector<ChunkInfo> out;
    out.reserve(chunkCount());
    for (const Chunk &c : *this)
        out.push_back(ChunkInfo{c.offset, c.size, c.free});
    return out;
}

void
BfcAllocator::resetPeak()
{
    stats_.peakBytesInUse = stats_.bytesInUse;
}

std::uint32_t
BfcAllocator::linkAfter(std::uint32_t slot, std::uint64_t offset,
                        std::uint64_t size, bool free)
{
    std::uint32_t s;
    if (!spare_.empty()) {
        s = spare_.back();
        spare_.pop_back();
    } else {
        s = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    std::uint32_t next = slab_[slot].next;
    slab_[s] = Chunk{offset, size, kNoOwner, free, false, slot, next};
    slab_[slot].next = s;
    if (next != kNoSlot)
        slab_[next].prev = s;
    indexInsert(offset, s);
    return s;
}

void
BfcAllocator::unlink(std::uint32_t slot)
{
    const Chunk &c = slab_[slot];
    if (c.prev != kNoSlot)
        slab_[c.prev].next = c.next;
    if (c.next != kNoSlot)
        slab_[c.next].prev = c.prev;
    indexErase(c.offset);
    spare_.push_back(slot);
}

std::uint32_t
BfcAllocator::findSlot(std::uint64_t offset) const
{
    std::size_t mask = index_.size() - 1;
    for (std::size_t i = home(offset);; i = (i + 1) & mask) {
        if (index_[i].offset == offset)
            return index_[i].slot;
        if (index_[i].offset == kNoOffset)
            return kNoSlot;
    }
}

std::uint32_t
BfcAllocator::slotOf(std::uint64_t offset, const char *what) const
{
    std::uint32_t slot = findSlot(offset);
    if (slot == kNoSlot)
        panic("{} of unknown handle {}", what, offset);
    return slot;
}

void
BfcAllocator::indexInsert(std::uint64_t offset, std::uint32_t slot)
{
    if (2 * chunkCount() > index_.size())
        indexResize(2 * index_.size());
    std::size_t mask = index_.size() - 1;
    std::size_t i = home(offset);
    while (index_[i].offset != kNoOffset)
        i = (i + 1) & mask;
    index_[i] = IndexEntry{offset, slot};
}

void
BfcAllocator::indexErase(std::uint64_t offset)
{
    std::size_t mask = index_.size() - 1;
    std::size_t i = home(offset);
    while (index_[i].offset != offset)
        i = (i + 1) & mask;
    // Backward shift: pull each later entry of the probe run into the
    // hole unless its home lies cyclically in (hole, entry].
    for (std::size_t j = (i + 1) & mask; index_[j].offset != kNoOffset;
         j = (j + 1) & mask) {
        std::size_t h = home(index_[j].offset);
        if (((j - h) & mask) >= ((j - i) & mask)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i].offset = kNoOffset;
}

void
BfcAllocator::indexResize(std::size_t entries)
{
    std::vector<IndexEntry> old =
        std::exchange(index_, std::vector<IndexEntry>(
                                  entries, IndexEntry{kNoOffset, kNoSlot}));
    indexShift_ = 64 - static_cast<unsigned>(__builtin_ctzll(entries));
    std::size_t mask = entries - 1;
    for (const IndexEntry &e : old) {
        if (e.offset == kNoOffset)
            continue;
        std::size_t i = home(e.offset);
        while (index_[i].offset != kNoOffset)
            i = (i + 1) & mask;
        index_[i] = e;
    }
}

void
BfcAllocator::checkInvariants() const
{
    std::uint64_t expect_offset = 0;
    std::uint64_t in_use = 0;
    std::size_t free_count = 0;
    std::size_t chunks = 0;
    bool prev_free = false;
    std::uint32_t prev_slot = kNoSlot;
    for (std::uint32_t s = kHead; s != kNoSlot; s = slab_[s].next) {
        const Chunk &c = slab_[s];
        std::uint64_t off = c.offset;
        if (++chunks > chunkCount())
            panic("chunk list longer than the {} live slots", chunkCount());
        if (c.prev != prev_slot)
            panic("broken prev link at offset {}", off);
        if (off != expect_offset)
            panic("chunk tiling broken at offset {}", off);
        if (c.size == 0)
            panic("zero-size chunk at offset {}", off);
        if (findSlot(off) != s)
            panic("offset index misses chunk at {}", off);
        if (c.free && prev_free)
            panic("uncoalesced adjacent free chunks at offset {}", off);
        if (c.free) {
            ++free_count;
            if (c.owner != kNoOwner || c.pendingFree)
                panic("free chunk at {} carries a tag", off);
            if (!freeBySize_.count({c.size, c.offset}))
                panic("free chunk missing from size index at {}", off);
            auto fo = freeByOffset_.find(c.offset);
            if (fo == freeByOffset_.end() || fo->second != c.size)
                panic("free chunk missing from offset index at {}", off);
        } else {
            in_use += c.size;
        }
        prev_free = c.free;
        prev_slot = s;
        expect_offset += c.size;
    }
    if (expect_offset != capacity_)
        panic("chunks cover {} of {} capacity", expect_offset, capacity_);
    if (chunks != chunkCount())
        panic("chunk list holds {} of {} live slots", chunks, chunkCount());
    std::size_t indexed = 0;
    for (const IndexEntry &e : index_)
        indexed += e.offset != kNoOffset;
    if (indexed != chunks)
        panic("offset index holds {} entries for {} chunks", indexed, chunks);
    if (in_use != stats_.bytesInUse)
        panic("bytesInUse accounting drift: {} vs {}", in_use,
              stats_.bytesInUse);
    if (free_count != freeBySize_.size())
        panic("free index size drift: {} vs {}", free_count,
              freeBySize_.size());
    if (free_count != freeByOffset_.size())
        panic("free offset-index size drift: {} vs {}", free_count,
              freeByOffset_.size());
}

} // namespace capu
