#include "memory/bfc_allocator.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"

namespace capu
{

namespace
{

/**
 * Size bin of `size` (>= 1): four bins per power of two, splitting the
 * octave [2^e, 2^(e+1)) at 2^e times 5/4, 3/2 and 7/4, so bins grow
 * monotonically with size and 256 of them cover every 64-bit size.
 */
unsigned
sizeBin(std::uint64_t size)
{
    unsigned e = 63 - static_cast<unsigned>(__builtin_clzll(size));
    unsigned quarter = e >= 2 ? (size >> (e - 2)) & 3 : (size << (2 - e)) & 3;
    return 4 * e + quarter;
}

} // namespace

BfcAllocator::BfcAllocator(std::uint64_t capacity, BfcOptions options)
    : capacity_(capacity / kAlignment * kAlignment), options_(options)
{
    if (capacity_ == 0)
        fatal("BfcAllocator capacity must be at least {} bytes", kAlignment);
    slab_.push_back(Chunk{0, capacity_, kNoOwner, true, false, kNoSlot,
                          kNoSlot});
    indexResize(16);
    indexInsert(0, kHead);
    freeInsert(capacity_, 0);
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

    // The chosen free chunk's bin and position there; kBins if none fits.
    unsigned bin = kBins;
    std::size_t pos = 0;
    unsigned need_bin = sizeBin(need);
    if (large) {
        // Highest-addressed fitting chunk. The fitting keys are the tail
        // of the request's bin from lower_bound and every key above it;
        // under segregated placement few large chunks are free, so the
        // scan is short.
        std::uint64_t top = 0;
        for (unsigned b = nonEmptyFrom(need_bin); b < kBins;
             b = nonEmptyFrom(b + 1)) {
            const std::vector<FreeKey> &keys = bins_[b];
            auto it = keys.begin();
            if (b == need_bin)
                it = std::lower_bound(it, keys.end(), FreeKey{need, 0});
            for (; it != keys.end(); ++it) {
                if (bin == kBins || it->second > top) {
                    top = it->second;
                    bin = b;
                    pos = static_cast<std::size_t>(it - keys.begin());
                }
            }
        }
    } else {
        // Smallest (size, offset) key with size >= need.
        const std::vector<FreeKey> &keys = bins_[need_bin];
        auto it = std::lower_bound(keys.begin(), keys.end(), FreeKey{need, 0});
        if (it != keys.end()) {
            bin = need_bin;
            pos = static_cast<std::size_t>(it - keys.begin());
        } else {
            bin = nonEmptyFrom(need_bin + 1);
        }
    }
    if (bin == kBins) {
        ++stats_.failedAllocs;
        return std::nullopt;
    }

    auto [size, offset] = bins_[bin][pos];
    freeEraseAt(bin, pos);
    std::uint32_t slot = slotOf(offset, "allocate");
    // Split if the remainder is big enough to be useful on its own
    // (TF splits when the leftover exceeds the min allocation size).
    bool split = size - need >= kAlignment;
    MemHandle result = offset;
    if (large && split) {
        // Carve from the top: the chunk stays free as the low remainder.
        std::uint64_t rest = size - need;
        freeInsert(rest, offset);
        slab_[slot].size = rest;
        result = offset + rest;
        linkAfter(slot, result, need, false);
    } else {
        slab_[slot].free = false;
        if (split) {
            slab_[slot].size = need;
            linkAfter(slot, offset + need, size - need, true);
            freeInsert(size - need, offset + need);
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

    // Coalesce with next neighbour.
    if (chunk.next != kNoSlot && slab_[chunk.next].free) {
        const Chunk &next = slab_[chunk.next];
        freeErase(next.size, next.offset);
        chunk.size += next.size;
        unlink(chunk.next);
        ++stats_.mergeCount;
    }
    // Coalesce with previous neighbour.
    if (chunk.prev != kNoSlot && slab_[chunk.prev].free) {
        Chunk &prev = slab_[chunk.prev];
        freeErase(prev.size, prev.offset);
        prev.size += chunk.size;
        freeInsert(prev.size, prev.offset);
        unlink(slot);
        ++stats_.mergeCount;
        return;
    }
    freeInsert(chunk.size, chunk.offset);
}

bool
BfcAllocator::canAllocate(std::uint64_t bytes) const
{
    return roundUp(bytes) <= largestFree();
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
    stats_.largestFreeChunk = largestFree();
    stats_.freeChunkCount = freeCount_;
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

void
BfcAllocator::freeInsert(std::uint64_t size, std::uint64_t offset)
{
    unsigned bin = sizeBin(size);
    std::vector<FreeKey> &keys = bins_[bin];
    FreeKey key{size, offset};
    keys.insert(std::lower_bound(keys.begin(), keys.end(), key), key);
    binMask_[bin / 64] |= std::uint64_t(1) << (bin % 64);
    ++freeCount_;
}

void
BfcAllocator::freeErase(std::uint64_t size, std::uint64_t offset)
{
    unsigned bin = sizeBin(size);
    const std::vector<FreeKey> &keys = bins_[bin];
    FreeKey key{size, offset};
    auto it = std::lower_bound(keys.begin(), keys.end(), key);
    freeEraseAt(bin, static_cast<std::size_t>(it - keys.begin()));
}

void
BfcAllocator::freeEraseAt(unsigned bin, std::size_t pos)
{
    std::vector<FreeKey> &keys = bins_[bin];
    keys.erase(keys.begin() + static_cast<std::ptrdiff_t>(pos));
    if (keys.empty())
        binMask_[bin / 64] &= ~(std::uint64_t(1) << (bin % 64));
    --freeCount_;
}

unsigned
BfcAllocator::nonEmptyFrom(unsigned bin) const
{
    for (unsigned w = bin / 64; w < binMask_.size(); ++w) {
        std::uint64_t bits = binMask_[w];
        if (w == bin / 64)
            bits &= ~std::uint64_t(0) << (bin % 64);
        if (bits)
            return 64 * w + static_cast<unsigned>(__builtin_ctzll(bits));
    }
    return kBins;
}

std::uint64_t
BfcAllocator::largestFree() const
{
    for (std::size_t w = binMask_.size(); w-- > 0;) {
        if (std::uint64_t bits = binMask_[w]) {
            std::size_t top = 64 * w + 63 - __builtin_clzll(bits);
            return bins_[top].back().first;
        }
    }
    return 0;
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
            const std::vector<FreeKey> &keys = bins_[sizeBin(c.size)];
            if (!std::binary_search(keys.begin(), keys.end(),
                                    FreeKey{c.size, c.offset}))
                panic("free chunk missing from its size bin at {}", off);
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
    std::size_t binned = 0;
    for (unsigned b = 0; b < kBins; ++b) {
        const std::vector<FreeKey> &keys = bins_[b];
        binned += keys.size();
        bool marked = (binMask_[b / 64] >> (b % 64)) & 1;
        if (marked == keys.empty())
            panic("bin mask says bin {} is {} but it holds {} chunks", b,
                  marked ? "non-empty" : "empty", keys.size());
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (sizeBin(keys[i].first) != b)
                panic("size bin {} holds a {}-byte chunk at {}", b,
                      keys[i].first, keys[i].second);
            if (i > 0 && !(keys[i - 1] < keys[i]))
                panic("size bin {} out of (size, offset) order at {}", b,
                      keys[i].second);
        }
    }
    if (binned != free_count || freeCount_ != free_count)
        panic("size bins hold {} chunks (count {}) for {} free chunks",
              binned, freeCount_, free_count);
}

} // namespace capu
