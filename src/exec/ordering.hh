/**
 * @file
 * The executor's event-ordering rules as a reusable edge enumeration.
 *
 * Guided execution interleaves three totally-ordered timelines — the FIFO
 * compute stream and the two PCIe lanes (Stream/PcieLink serialize work
 * per lane) — plus a set of deferred host actions (chunk frees at transfer
 * completion, prefetch allocations) that are ordered only by their causes.
 * The Executor enforces a small set of cross-timeline guarantees:
 *
 *   stream-fifo          work on one stream retires in issue order
 *                        (Stream::enqueue: start = max(ready, busyUntil))
 *   retire-before-copy   a swap-out may not start before the evicting
 *                        access's kernel retires (evictSwapAsync:
 *                        ready = max(clock, currentOpEnd))
 *   complete-before-free the GPU chunk frees only when its D2H transfer
 *                        completes (mem_.freeAt(done))
 *   out-before-in        a prefetch of a tensor still swapping out starts
 *                        only after the swap-out completes (prefetchAsync:
 *                        ready = max(ready, swapOutDone))
 *   complete-before-use  the back-access waits on swapInReady
 *                        (ensureResident's SwappingIn stall)
 *   alloc-before-copy-in the destination chunk is allocated before the
 *                        H2D copy into it is enqueued
 *   issue-after-cause    a host action fires at its trigger (a prefetch at
 *                        its in-trigger access, a drop-free at the
 *                        evicting kernel)
 *
 * capuverify (src/analysis/happens_before.*) replays these rules over a
 * traced run's event list and checks that every pair of conflicting
 * operations on a tensor's device buffer is ordered. Each edge names the
 * rule that implies it, so the mutation corpus
 * (tests/mutation_corpus_test.cc) knocks a rule out by dropping the edges
 * with that name and proves the detector notices the missing guarantee.
 *
 * If executor.cc changes a sequencing decision, this enumeration must
 * change with it — the happens_before tests cross-check both against real
 * traces.
 */

#ifndef CAPU_EXEC_ORDERING_HH
#define CAPU_EXEC_ORDERING_HH

#include <cstdint>
#include <vector>

#include "graph/tensor.hh"
#include "support/units.hh"

namespace capu::hb
{

/** Logical timeline an event belongs to. */
enum class HbStream : std::uint8_t
{
    Compute = 0, ///< FIFO compute stream (kernels, recompute replays)
    D2H = 1,     ///< PCIe device-to-host lane (swap-outs)
    H2D = 2,     ///< PCIe host-to-device lane (prefetches, swap-ins)
    Deferred = 3,///< host actions ordered only by cause (frees, allocs)
};
constexpr std::size_t kHbChainStreams = 3; ///< FIFO-ordered streams

/** Operation on (or affecting) a tensor's device buffer. */
enum class HbOp : std::uint8_t
{
    KernelAccess,    ///< compute kernel reads/writes the buffer
    RecomputeKernel, ///< lineage replay regenerates the buffer
    SwapOutStart,    ///< D2H copy begins reading the buffer
    SwapOutEnd,      ///< D2H copy done; host copy valid
    SwapInStart,     ///< H2D copy begins writing the (new) buffer
    SwapInEnd,       ///< H2D copy done; buffer readable
    BufferFree,      ///< device chunk released
    BufferAlloc,     ///< device chunk (re)allocated
};

const char *hbStreamName(HbStream s);
const char *hbOpName(HbOp op);

/**
 * One event. Events are listed in issue order (the order the host loop
 * issues them; for a trace, chronological order) — the enumeration
 * derives same-stream FIFO edges and cross-stream matches from that
 * order.
 */
struct HbEvent
{
    std::uint32_t id = 0;       ///< index in the event list
    HbStream stream = HbStream::Compute;
    HbOp op = HbOp::KernelAccess;
    TensorId tensor = kInvalidTensor;
    /** 1-based trace index for kernel accesses; for transfer events the
     *  builders store the host-copy tag here (which pinned staging copy
     *  the transfer reads or writes) so the race scan can group D2H/H2D
     *  traffic that shares a host buffer. */
    int accessIndex = 0;
    int buffer = 0;             ///< device-buffer incarnation of `tensor`
    bool write = false;         ///< mutates the buffer contents
    std::int32_t cause = -1;    ///< issuing event id (-1: none)
    Tick start = 0;             ///< derived or observed start tick
    Tick end = 0;               ///< completion tick (== start for instants)
    OpId opId = kInvalidOp;
};

/** One happens-before edge and the guarantee that implies it. */
struct HbEdge
{
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    const char *rule = nullptr;
};

/**
 * Enumerate the ordering edges the runtime guarantees for `events`
 * (listed in issue order). Pure function of the list: callers may mutate
 * the list (reorder, retag, drop) and re-enumerate.
 */
std::vector<HbEdge> enumerateOrderingEdges(const std::vector<HbEvent> &events);

} // namespace capu::hb

#endif // CAPU_EXEC_ORDERING_HH
