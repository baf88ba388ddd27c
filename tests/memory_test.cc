/**
 * @file
 * Unit + property tests for the memory substrate: BFC allocator (checked
 * against the map-based allocator it replaced), deferred frees, host
 * pool, and the time-aware MemoryManager.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "exec/memory_manager.hh"
#include "memory/bfc_allocator.hh"
#include "memory/deferred_free.hh"
#include "memory/host_pool.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/units.hh"

using namespace capu;

// --- BfcAllocator basics ---

TEST(Bfc, AllocateAndFree)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1000);
    ASSERT_TRUE(h.has_value());
    EXPECT_GT(a.bytesInUse(), 0u);
    a.deallocate(*h);
    EXPECT_EQ(a.bytesInUse(), 0u);
    a.checkInvariants();
}

TEST(Bfc, RoundsToAlignment)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(a.bytesInUse(), BfcAllocator::kAlignment);
    a.deallocate(*h);
}

TEST(Bfc, LargeRequestsRoundToSizeClass)
{
    BfcAllocator a(4_GiB);
    std::uint64_t req = 100_MiB;
    auto h = a.allocate(req);
    ASSERT_TRUE(h.has_value());
    // Rounded up, but by no more than the 12.5% geometric class overhead.
    EXPECT_GE(a.bytesInUse(), req);
    EXPECT_LE(a.bytesInUse(),
              req + req / 8 + BfcAllocator::kAlignment);
    // Two requests in the same class produce identical chunk sizes.
    auto h2 = a.allocate(req - 100);
    ASSERT_TRUE(h2.has_value());
    EXPECT_EQ(a.allocationSize(*h), a.allocationSize(*h2));
    a.deallocate(*h);
    a.deallocate(*h2);
}

TEST(Bfc, FailsWhenFull)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1_MiB);
    ASSERT_TRUE(h.has_value());
    EXPECT_FALSE(a.allocate(256).has_value());
    EXPECT_EQ(a.stats().failedAllocs, 1u);
    a.deallocate(*h);
}

TEST(Bfc, OversizeRequestFails)
{
    BfcAllocator a(1_MiB);
    EXPECT_FALSE(a.allocate(2_MiB).has_value());
}

TEST(Bfc, CoalescesNeighbours)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(256_KiB);
    auto h2 = a.allocate(256_KiB);
    auto h3 = a.allocate(256_KiB);
    ASSERT_TRUE(h1 && h2 && h3);
    a.deallocate(*h1);
    a.deallocate(*h3);
    a.deallocate(*h2); // merges all three plus the tail into one chunk
    EXPECT_EQ(a.stats().freeChunkCount, 1u);
    EXPECT_EQ(a.stats().largestFreeChunk, a.capacity());
    a.checkInvariants();
}

TEST(Bfc, BestFitPrefersSmallestChunk)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(100_KiB);
    auto h2 = a.allocate(10_KiB);
    auto h3 = a.allocate(500_KiB);
    ASSERT_TRUE(h1 && h2 && h3);
    a.deallocate(*h1); // 100 KiB hole at offset of h1
    // A 50 KiB request must come from the 100 KiB hole, not the tail.
    auto h4 = a.allocate(50_KiB);
    ASSERT_TRUE(h4.has_value());
    EXPECT_EQ(*h4, *h1);
    a.checkInvariants();
}

TEST(Bfc, LargeAllocationsPlaceHigh)
{
    BfcAllocator a(4_GiB);
    auto small = a.allocate(1_KiB);
    auto large = a.allocate(512_MiB);
    ASSERT_TRUE(small && large);
    EXPECT_LT(*small, *large);
    // The large chunk is carved from the arena top.
    EXPECT_EQ(*large + a.allocationSize(*large), a.capacity());
}

TEST(Bfc, LowPlacementOverridesForLarge)
{
    BfcAllocator a(4_GiB);
    auto w = a.allocate(512_MiB, BfcAllocator::Placement::Low);
    ASSERT_TRUE(w.has_value());
    EXPECT_EQ(*w, 0u); // packed at the bottom (weights at setup)
}

TEST(Bfc, CanAllocateChecksContiguity)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(400_KiB);
    auto h2 = a.allocate(200_KiB);
    auto h3 = a.allocate(400_KiB);
    ASSERT_TRUE(h1 && h2 && h3);
    a.deallocate(*h1);
    a.deallocate(*h3);
    // ~800 KiB free in two pieces; 600 KiB contiguous is impossible.
    EXPECT_GE(a.bytesFree(), 600_KiB);
    EXPECT_FALSE(a.canAllocate(600_KiB));
    EXPECT_TRUE(a.canAllocate(300_KiB));
}

TEST(Bfc, DoubleFreePanics)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1_KiB);
    a.deallocate(*h);
    EXPECT_THROW(a.deallocate(*h), PanicError);
}

TEST(Bfc, UnknownFreePanics)
{
    BfcAllocator a(1_MiB);
    EXPECT_THROW(a.deallocate(12345), PanicError);
}

TEST(Bfc, PeakTracking)
{
    BfcAllocator a(1_MiB);
    auto h1 = a.allocate(100_KiB);
    auto h2 = a.allocate(100_KiB);
    a.deallocate(*h1);
    a.deallocate(*h2);
    EXPECT_GE(a.stats().peakBytesInUse, 200_KiB);
    a.resetPeak();
    EXPECT_EQ(a.stats().peakBytesInUse, 0u);
}

TEST(Bfc, SnapshotTilesArena)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(128_KiB);
    (void)h;
    auto snap = a.snapshot();
    std::uint64_t covered = 0;
    for (const auto &c : snap) {
        EXPECT_EQ(c.offset, covered);
        covered += c.size;
    }
    EXPECT_EQ(covered, a.capacity());
}

TEST(Bfc, ZeroCapacityIsFatal)
{
    EXPECT_THROW(BfcAllocator a(0), FatalError);
}

/** Property test: random alloc/free sequences preserve all invariants. */
class BfcPropertyTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BfcPropertyTest, RandomChurnKeepsInvariants)
{
    Rng rng(GetParam());
    BfcAllocator a(64_MiB);
    std::vector<MemHandle> live;
    std::uint64_t expect_free_count = 0;

    for (int step = 0; step < 2000; ++step) {
        bool do_alloc = live.empty() || rng.chance(0.55);
        if (do_alloc) {
            std::uint64_t bytes = rng.chance(0.2)
                                      ? rng.uniformInt(1, 8_MiB)
                                      : rng.uniformInt(1, 64_KiB);
            auto h = a.allocate(bytes);
            if (h)
                live.push_back(*h);
        } else {
            std::size_t idx = rng.uniformInt(0, live.size() - 1);
            a.deallocate(live[idx]);
            ++expect_free_count;
            live[idx] = live.back();
            live.pop_back();
        }
        if (step % 100 == 0)
            a.checkInvariants();
    }
    a.checkInvariants();
    EXPECT_EQ(a.stats().totalFrees, expect_free_count);

    for (MemHandle h : live)
        a.deallocate(h);
    a.checkInvariants();
    EXPECT_EQ(a.bytesInUse(), 0u);
    EXPECT_EQ(a.stats().freeChunkCount, 1u); // fully coalesced
}

INSTANTIATE_TEST_SUITE_P(Seeds, BfcPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Bfc, OwnerAndPendingTags)
{
    BfcAllocator a(1_MiB);
    auto h = a.allocate(1_KiB);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(a.tagOwner(*h, 7), BfcAllocator::kNoOwner);
    EXPECT_EQ(a.tagOwner(*h, 9), 7u);
    EXPECT_THROW(a.deallocate(*h), PanicError); // still owned
    EXPECT_EQ(a.tagOwner(*h, BfcAllocator::kNoOwner), 9u);

    EXPECT_FALSE(a.isFreePending(*h));
    a.markFreePending(*h);
    EXPECT_TRUE(a.isFreePending(*h));
    EXPECT_THROW(a.markFreePending(*h), PanicError);
    a.checkInvariants();
    a.deallocate(*h);
    EXPECT_FALSE(a.isFreePending(*h));
    EXPECT_THROW(a.markFreePending(*h), PanicError); // free
    EXPECT_THROW(a.tagOwner(*h, 1), PanicError);
    EXPECT_THROW(a.markFreePending(12345), PanicError); // no chunk there
    a.checkInvariants();
}

namespace
{

/**
 * The std::map/std::set BFC allocator the slab replaced, kept as the
 * oracle Bfc.SlabMatchesReference compares against: chunks keyed by
 * offset (neighbours are map neighbours), free chunks by (size, offset)
 * and by offset.
 */
class ReferenceBfc
{
  public:
    using Placement = BfcAllocator::Placement;

    ReferenceBfc(std::uint64_t capacity, BfcOptions options)
        : capacity_(capacity / BfcAllocator::kAlignment *
                    BfcAllocator::kAlignment),
          options_(options)
    {
        Chunk whole{0, capacity_, true};
        chunks_.emplace(0, whole);
        insertFree(whole);
    }

    std::optional<MemHandle>
    allocate(std::uint64_t bytes, Placement placement)
    {
        std::uint64_t need = roundUp(bytes);
        bool large = options_.segregateLarge &&
                     placement == Placement::Auto &&
                     need >= BfcAllocator::kLargeThreshold;
        auto cit = chunks_.end();
        if (large) {
            for (auto it = freeByOffset_.rbegin(); it != freeByOffset_.rend();
                 ++it) {
                if (it->second >= need) {
                    cit = chunks_.find(it->first);
                    break;
                }
            }
        } else {
            auto it = freeBySize_.lower_bound({need, 0});
            if (it != freeBySize_.end())
                cit = chunks_.find(it->second);
        }
        if (cit == chunks_.end()) {
            ++stats_.failedAllocs;
            return std::nullopt;
        }

        Chunk &chunk = cit->second;
        eraseFree(chunk);
        chunk.free = false;
        std::uint64_t result_offset = chunk.offset;
        std::uint64_t occupied = chunk.size;
        if (chunk.size - need >= BfcAllocator::kAlignment) {
            occupied = need;
            ++stats_.splitCount;
            if (large) {
                Chunk rest{chunk.offset, chunk.size - need, true};
                Chunk taken{chunk.offset + rest.size, need, false};
                chunks_.erase(cit);
                chunks_.emplace(rest.offset, rest);
                insertFree(rest);
                chunks_.emplace(taken.offset, taken);
                result_offset = taken.offset;
            } else {
                Chunk rest{chunk.offset + need, chunk.size - need, true};
                chunk.size = need;
                chunks_.emplace(rest.offset, rest);
                insertFree(rest);
            }
        }
        stats_.bytesInUse += occupied;
        stats_.peakBytesInUse =
            std::max(stats_.peakBytesInUse, stats_.bytesInUse);
        ++stats_.totalAllocs;
        return result_offset;
    }

    void
    deallocate(MemHandle handle)
    {
        auto it = chunks_.find(handle);
        if (it == chunks_.end() || it->second.free)
            panic("deallocate of unknown or already-free handle {}", handle);
        Chunk &chunk = it->second;
        stats_.bytesInUse -= chunk.size;
        ++stats_.totalFrees;
        chunk.free = true;
        auto next = std::next(it);
        if (next != chunks_.end() && next->second.free) {
            eraseFree(next->second);
            chunk.size += next->second.size;
            chunks_.erase(next);
            ++stats_.mergeCount;
        }
        if (it != chunks_.begin()) {
            auto prev = std::prev(it);
            if (prev->second.free) {
                eraseFree(prev->second);
                prev->second.size += chunk.size;
                chunks_.erase(it);
                insertFree(prev->second);
                ++stats_.mergeCount;
                return;
            }
        }
        insertFree(chunk);
    }

    const BfcStats &
    stats() const
    {
        stats_.largestFreeChunk =
            freeBySize_.empty() ? 0 : freeBySize_.rbegin()->first;
        stats_.freeChunkCount = freeBySize_.size();
        return stats_;
    }

    std::vector<BfcAllocator::ChunkInfo>
    snapshot() const
    {
        std::vector<BfcAllocator::ChunkInfo> out;
        for (const auto &[off, c] : chunks_)
            out.push_back({c.offset, c.size, c.free});
        return out;
    }

    void
    checkInvariants() const
    {
        std::uint64_t expect_offset = 0;
        bool prev_free = false;
        for (const auto &[off, c] : chunks_) {
            if (off != c.offset || off != expect_offset || c.size == 0 ||
                (c.free && prev_free))
                panic("reference tiling broken at offset {}", off);
            if (c.free && !freeBySize_.count({c.size, c.offset}))
                panic("reference free index misses offset {}", off);
            prev_free = c.free;
            expect_offset += c.size;
        }
        if (expect_offset != capacity_)
            panic("reference chunks cover {} of {}", expect_offset,
                  capacity_);
    }

  private:
    struct Chunk
    {
        std::uint64_t offset;
        std::uint64_t size;
        bool free;
    };

    std::uint64_t
    roundUp(std::uint64_t bytes) const
    {
        if (bytes == 0)
            bytes = 1;
        if (options_.sizeClasses && bytes >= BfcAllocator::kLargeThreshold) {
            std::uint64_t grain = std::uint64_t(1)
                                  << (63 - __builtin_clzll(bytes >> 3));
            return (bytes + grain - 1) / grain * grain;
        }
        constexpr std::uint64_t align = BfcAllocator::kAlignment;
        return (bytes + align - 1) / align * align;
    }

    void
    insertFree(const Chunk &c)
    {
        freeBySize_.emplace(c.size, c.offset);
        freeByOffset_.emplace(c.offset, c.size);
    }

    void
    eraseFree(const Chunk &c)
    {
        freeBySize_.erase({c.size, c.offset});
        freeByOffset_.erase(c.offset);
    }

    std::map<std::uint64_t, Chunk> chunks_;
    std::set<std::pair<std::uint64_t, std::uint64_t>> freeBySize_;
    std::map<std::uint64_t, std::uint64_t> freeByOffset_;
    std::uint64_t capacity_;
    BfcOptions options_;
    mutable BfcStats stats_;
};

bool
sameLayout(const std::vector<BfcAllocator::ChunkInfo> &a,
           const std::vector<BfcAllocator::ChunkInfo> &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const auto &x, const auto &y) {
                          return x.offset == y.offset && x.size == y.size &&
                                 x.free == y.free;
                      });
}

/** Request mixes Bfc.SlabMatchesReference drives both allocators with. */
enum class ChurnMix
{
    Property, ///< BfcPropertyTest: 55% allocs of 1 B-64 KiB, 1 in 5 to 8 MiB
    Bench,    ///< BM_BfcChurn, verbatim
    /// BM_BfcChurn with its 64-320 MiB branch drawn from fresh bits, so
    /// large requests also arrive while chunks are live.
    BenchLarge,
    /// Requests on every size-bin edge up to the arena size, 2^k times 1,
    /// 5/4, 3/2 and 7/4, and 256 B either side of each, with the
    /// Property mix's alloc/free split, so chunks sit on both sides of
    /// each edge and >=64 MiB requests scan bins while chunks are live.
    BinEdges,
};

/**
 * Run `ops` seeded operations on the slab and the reference and demand the
 * same handle or failure, stats() and snapshot() after each. The slab's
 * chunks also carry owner tags and pending marks through their lifetimes,
 * so checkInvariants() sees tags under churn.
 */
void
expectSlabMatchesReference(std::uint64_t capacity, BfcOptions options,
                           ChurnMix mix, std::uint64_t seed, int ops)
{
    SCOPED_TRACE(::testing::Message()
                 << "capacity " << capacity << " segregateLarge "
                 << options.segregateLarge << " sizeClasses "
                 << options.sizeClasses << " mix " << static_cast<int>(mix)
                 << " seed " << seed);
    BfcAllocator slab(capacity, options);
    ReferenceBfc ref(capacity, options);
    std::vector<MemHandle> live;
    std::uint64_t x = 0x2545f4914f6cdd1dull ^ seed;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    Rng rng(seed);
    std::uint32_t next_owner = 0;
    const std::uint64_t top_k = 63 - __builtin_clzll(capacity);

    auto release = [&](std::size_t i) {
        MemHandle h = live[i];
        std::uint32_t owner = slab.tagOwner(h, BfcAllocator::kNoOwner);
        if (owner != BfcAllocator::kNoOwner && (owner & 1))
            slab.markFreePending(h);
        slab.deallocate(h);
        ref.deallocate(h);
        live[i] = live.back();
        live.pop_back();
    };
    auto request = [&](std::uint64_t bytes, BfcAllocator::Placement place) {
        auto a = slab.allocate(bytes, place);
        auto b = ref.allocate(bytes, place);
        EXPECT_EQ(a, b) << "request of " << bytes << " bytes";
        if (a != b)
            return false;
        if (a) {
            live.push_back(*a);
            if (rng.chance(0.5))
                slab.tagOwner(*a, next_owner++);
        }
        return a.has_value();
    };

    for (int step = 0; step < ops; ++step) {
        auto place = rng.chance(0.125) ? BfcAllocator::Placement::Low
                                       : BfcAllocator::Placement::Auto;
        if (mix == ChurnMix::Property) {
            if (live.empty() || rng.chance(0.55)) {
                std::uint64_t bytes = rng.chance(0.2)
                                          ? rng.uniformInt(1, 8_MiB)
                                          : rng.uniformInt(1, 64_KiB);
                request(bytes, place);
            } else {
                release(rng.uniformInt(0, live.size() - 1));
            }
        } else if (mix == ChurnMix::BinEdges) {
            if (live.empty() || rng.chance(0.55)) {
                std::uint64_t k = rng.uniformInt(8, top_k);
                std::uint64_t edge = (4 + rng.uniformInt(0, 3)) << (k - 2);
                std::uint64_t bytes = edge - 256 + 256 * rng.uniformInt(0, 2);
                if (!request(bytes, place) && !live.empty())
                    release(live.size() - 1);
            } else {
                release(rng.uniformInt(0, live.size() - 1));
            }
        } else {
            std::uint64_t r = rnd();
            if (!live.empty() && (live.size() > 2048 || (r & 7) == 0)) {
                release(rnd() % live.size());
            } else {
                bool big = mix == ChurnMix::Bench ? (r & 15) == 0
                                                  : (rnd() & 15) == 0;
                std::uint64_t bytes = big ? 64_MiB + rnd() % 256_MiB
                                          : 4_KiB + rnd() % 4_MiB;
                if (!request(bytes, place) && !live.empty())
                    release(live.size() - 1);
            }
        }
        if (::testing::Test::HasFailure())
            return;
        const BfcStats &sa = slab.stats();
        const BfcStats &sb = ref.stats();
        ASSERT_EQ(sa.bytesInUse, sb.bytesInUse) << "step " << step;
        ASSERT_EQ(sa.peakBytesInUse, sb.peakBytesInUse) << "step " << step;
        ASSERT_EQ(sa.totalAllocs, sb.totalAllocs) << "step " << step;
        ASSERT_EQ(sa.totalFrees, sb.totalFrees) << "step " << step;
        ASSERT_EQ(sa.failedAllocs, sb.failedAllocs) << "step " << step;
        ASSERT_EQ(sa.largestFreeChunk, sb.largestFreeChunk)
            << "step " << step;
        ASSERT_EQ(sa.freeChunkCount, sb.freeChunkCount) << "step " << step;
        ASSERT_EQ(sa.splitCount, sb.splitCount) << "step " << step;
        ASSERT_EQ(sa.mergeCount, sb.mergeCount) << "step " << step;
        ASSERT_TRUE(sameLayout(slab.snapshot(), ref.snapshot()))
            << "step " << step;
        if (step % 100 == 0) {
            slab.checkInvariants();
            ref.checkInvariants();
        }
    }
    while (!live.empty())
        release(live.size() - 1);
    slab.checkInvariants();
    EXPECT_TRUE(sameLayout(slab.snapshot(), ref.snapshot()));
}

} // namespace

/**
 * The slab allocator makes the map-based reference's every decision: the
 * same handle or failure, the same stats and the same arena layout after
 * each operation, for every request mix of ChurnMix,
 * each anti-fragmentation option on and off, both placements, and arenas
 * from 1 MiB to 16 GiB.
 */
TEST(Bfc, SlabMatchesReference)
{
    const std::uint64_t arenas[] = {1_MiB, 64_MiB, 1_GiB, 16_GiB};
    const ChurnMix mixes[] = {ChurnMix::Property, ChurnMix::Bench,
                              ChurnMix::BenchLarge, ChurnMix::BinEdges};
    std::uint64_t seed = 1;
    for (std::uint64_t capacity : arenas) {
        for (ChurnMix mix : mixes) {
            for (int opt = 0; opt < 4; ++opt) {
                BfcOptions options;
                options.segregateLarge = (opt & 1) != 0;
                options.sizeClasses = (opt & 2) != 0;
                expectSlabMatchesReference(capacity, options, mix, seed++,
                                           mix == ChurnMix::Property ? 2000
                                                                     : 3000);
                if (HasFailure())
                    return;
            }
        }
    }
}

// --- DeferredFreeQueue ---

TEST(DeferredFree, AppliesMaturedOnly)
{
    BfcAllocator a(1_MiB);
    DeferredFreeQueue q;
    auto h1 = a.allocate(100_KiB);
    auto h2 = a.allocate(100_KiB);
    q.post(100, *h1);
    q.post(200, *h2);
    q.applyUpTo(150, a);
    EXPECT_EQ(a.stats().totalFrees, 1u);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.nextMaturity(), std::optional<Tick>(200));
    q.applyUpTo(200, a);
    EXPECT_TRUE(q.empty());
}

TEST(DeferredFree, IsPendingTracksLifecycle)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h = mm.allocate(0, 1_KiB);
    ASSERT_TRUE(h.has_value());
    EXPECT_FALSE(mm.isFreePending(*h));
    mm.freeAt(50, *h);
    EXPECT_TRUE(mm.isFreePending(*h));
    EXPECT_TRUE(mm.canAllocate(50, 1_KiB)); // applies the matured free
    EXPECT_FALSE(mm.isFreePending(*h));
}

TEST(DeferredFree, NextMaturityEmpty)
{
    DeferredFreeQueue q;
    EXPECT_FALSE(q.nextMaturity().has_value());
}

// --- HostPinnedPool ---

TEST(HostPool, AllocatesAndTracks)
{
    HostPinnedPool p(1_MiB);
    auto h = p.allocate(600_KiB);
    EXPECT_NE(h, 0u);
    EXPECT_EQ(p.bytesInUse(), 600_KiB);
    p.deallocate(h);
    EXPECT_EQ(p.bytesInUse(), 0u);
    EXPECT_EQ(p.peakBytesInUse(), 600_KiB);
}

TEST(HostPool, ExhaustionReturnsZero)
{
    HostPinnedPool p(1_MiB);
    auto h = p.allocate(900_KiB);
    EXPECT_NE(h, 0u);
    EXPECT_EQ(p.allocate(200_KiB), 0u);
    p.deallocate(h);
    EXPECT_NE(p.allocate(200_KiB), 0u);
}

TEST(HostPool, UnknownFreePanics)
{
    HostPinnedPool p(1_MiB);
    EXPECT_THROW(p.deallocate(42), PanicError);
}

// --- MemoryManager ---

TEST(MemoryManager, AllocateAppliesMaturedFrees)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h1 = mm.allocate(0, 900_KiB);
    ASSERT_TRUE(h1);
    mm.freeAt(100, *h1);
    // At t=50 the free has not matured.
    EXPECT_FALSE(mm.allocate(50, 900_KiB).has_value());
    // At t=100 it has.
    EXPECT_TRUE(mm.allocate(100, 900_KiB).has_value());
}

TEST(MemoryManager, AllocateWaitingAdvancesClock)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h1 = mm.allocate(0, 900_KiB);
    ASSERT_TRUE(h1);
    mm.freeAt(500, *h1);
    Tick now = 10;
    auto h2 = mm.allocateWaiting(now, 900_KiB);
    ASSERT_TRUE(h2.has_value());
    EXPECT_EQ(now, 500u); // waited for the earliest pending free
}

TEST(MemoryManager, AllocateWaitingFailsWithNoPending)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h1 = mm.allocate(0, 900_KiB);
    ASSERT_TRUE(h1);
    Tick now = 10;
    EXPECT_FALSE(mm.allocateWaiting(now, 900_KiB).has_value());
    EXPECT_EQ(now, 10u); // clock untouched on failure
    mm.freeNow(20, *h1);
}

TEST(MemoryManager, DrainAll)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto h = mm.allocate(0, 100_KiB);
    mm.freeAt(1000000, *h);
    mm.drainAll();
    EXPECT_EQ(mm.gpu().bytesInUse(), 0u);
}

/**
 * A second deferred free of one chunk used to be queued silently; once the
 * first matured and the chunk was reused, the second released the new
 * owner's live allocation. Every double free now panics when posted.
 */
TEST(MemoryManager, SecondDeferredFreePanics)
{
    MemoryManager mm(1_MiB, 1_GiB);
    auto a = mm.allocate(0, 512_KiB);
    ASSERT_TRUE(a.has_value());
    ASSERT_EQ(*a, 0u);
    mm.freeAt(100, *a);
    EXPECT_THROW(mm.freeAt(200, *a), PanicError);   // already pending
    EXPECT_THROW(mm.freeNow(50, *a), PanicError);   // pending, not yet due

    auto b = mm.allocate(150, 512_KiB); // the first free matured
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(*b, 0u);
    auto c = mm.allocate(250, 1_KiB);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(mm.gpu().bytesInUse(), 512_KiB + 1_KiB); // b is still live
    EXPECT_NE(*c, 0u);

    mm.freeNow(300, *c);
    EXPECT_THROW(mm.freeAt(400, *c), PanicError); // already free
    mm.gpu().checkInvariants();
}
