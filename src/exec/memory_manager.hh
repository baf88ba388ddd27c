/**
 * @file
 * Time-aware GPU memory manager: BFC arena + deferred frees + host staging.
 *
 * Frees in the simulator take effect at stream completion times (a
 * swap-out's chunk is reusable only when the D2H copy finishes; a kernel's
 * workspace only when the kernel retires). `allocate()` therefore first
 * applies matured frees, and `allocateWaiting()` additionally advances the
 * caller's clock to the next maturity when the arena is full — which is
 * precisely the paper's decoupled-swap rule "only synchronize the earliest
 * unfinished swapping-out when OOM occurs".
 */

#ifndef CAPU_EXEC_MEMORY_MANAGER_HH
#define CAPU_EXEC_MEMORY_MANAGER_HH

#include <cstdint>
#include <optional>

#include "memory/bfc_allocator.hh"
#include "memory/deferred_free.hh"
#include "memory/host_pool.hh"
#include "obs/tracer.hh"
#include "support/units.hh"

namespace capu
{

class MemoryManager
{
  public:
    MemoryManager(std::uint64_t gpu_capacity, std::uint64_t host_capacity,
                  BfcOptions gpu_options = {});

    /** Apply matured frees, then try a single allocation at `now`. */
    std::optional<MemHandle>
    allocate(Tick now, std::uint64_t bytes,
             BfcAllocator::Placement placement = BfcAllocator::Placement::Auto);

    /**
     * Allocate, waiting on pending deferred frees if needed. Advances `now`
     * to the maturity actually waited for. Returns nullopt only when even
     * draining every pending free cannot satisfy the request.
     */
    std::optional<MemHandle> allocateWaiting(Tick &now, std::uint64_t bytes);

    /**
     * Free immediately (refcount hit zero at a known-past tick). Panics if
     * the chunk still has a deferred free posted.
     */
    void freeNow(Tick now, MemHandle handle);

    /**
     * Free effective at future tick `when`. Panics if the chunk is free or
     * already has a deferred free posted: a second free would otherwise
     * release whichever allocation reuses the chunk next.
     */
    void freeAt(Tick when, MemHandle handle);

    /** Whether allocate(bytes) would succeed right now (no waiting). */
    bool canAllocate(Tick now, std::uint64_t bytes);

    BfcAllocator &gpu() { return gpu_; }
    const BfcAllocator &gpu() const { return gpu_; }
    HostPinnedPool &host() { return host_; }
    const HostPinnedPool &host() const { return host_; }

    std::optional<Tick> nextPendingFree() const;

    /** Whether the chunk at `handle` has an unmatured deferred free. */
    bool
    isFreePending(MemHandle handle) const
    {
        return gpu_.isFreePending(handle);
    }

    /** Drain every pending free (end of simulation). */
    void drainAll();

    /** capureplay: shift every pending deferred free by `delta`. */
    void shiftPendingFrees(Tick delta) { deferred_.shiftPending(delta); }

    /** Pending (maturity, handle) pairs in application order (digests). */
    std::vector<std::pair<Tick, MemHandle>>
    pendingFrees() const
    {
        return deferred_.snapshotPending();
    }

    /**
     * Emit gpu.bytes_in_use counter samples on the memory track after each
     * allocation/immediate free. nullptr detaches.
     */
    void attachTracer(obs::Tracer *tracer);

  private:
    void sampleUsage(Tick now);

    BfcAllocator gpu_;
    HostPinnedPool host_;
    DeferredFreeQueue deferred_;
    obs::Tracer *tracer_ = nullptr;
    /// "gpu.bytes_in_use" in tracer_, interned on the first traced sample.
    obs::NameId bytesInUseLabel_ = 0;
};

} // namespace capu

#endif // CAPU_EXEC_MEMORY_MANAGER_HH
