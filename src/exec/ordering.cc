#include "exec/ordering.hh"

#include <unordered_map>

namespace capu::hb
{

const char *
hbStreamName(HbStream s)
{
    switch (s) {
      case HbStream::Compute:
        return "compute";
      case HbStream::D2H:
        return "d2h";
      case HbStream::H2D:
        return "h2d";
      case HbStream::Deferred:
        return "deferred";
    }
    return "?";
}

const char *
hbOpName(HbOp op)
{
    switch (op) {
      case HbOp::KernelAccess:
        return "kernel-access";
      case HbOp::RecomputeKernel:
        return "recompute-kernel";
      case HbOp::SwapOutStart:
        return "swap-out-start";
      case HbOp::SwapOutEnd:
        return "swap-out-end";
      case HbOp::SwapInStart:
        return "swap-in-start";
      case HbOp::SwapInEnd:
        return "swap-in-end";
      case HbOp::BufferFree:
        return "buffer-free";
      case HbOp::BufferAlloc:
        return "buffer-alloc";
    }
    return "?";
}

std::vector<HbEdge>
enumerateOrderingEdges(const std::vector<HbEvent> &events)
{
    std::vector<HbEdge> edges;
    edges.reserve(events.size() * 2);
    auto edge = [&](std::int64_t from, std::size_t to, const char *rule) {
        if (from >= 0 && static_cast<std::size_t>(from) != to)
            edges.push_back(HbEdge{static_cast<std::uint32_t>(from),
                                   static_cast<std::uint32_t>(to), rule});
    };

    // Last listed event per FIFO stream (Deferred events are ordered only
    // by their causes, never chained among themselves).
    std::int64_t last_on_stream[kHbChainStreams] = {-1, -1, -1};

    // Per-tensor matching state for the cross-stream rules.
    struct TensorMatch
    {
        std::int64_t lastComputeAccess = -1; ///< latest kernel touch
        std::int64_t pendingSwapOutEnd = -1; ///< awaiting free / swap-in
        std::int64_t freeSwapOutEnd = -1;    ///< awaiting its chunk free
        std::int64_t pendingSwapInEnd = -1;  ///< awaiting the back access
        std::int64_t pendingAlloc = -1;      ///< awaiting the copy-in
    };
    std::unordered_map<TensorId, TensorMatch> match;

    for (std::size_t i = 0; i < events.size(); ++i) {
        const HbEvent &ev = events[i];

        if (ev.stream != HbStream::Deferred) {
            auto s = static_cast<std::size_t>(ev.stream);
            edge(last_on_stream[s], i, "stream-fifo");
            last_on_stream[s] = static_cast<std::int64_t>(i);
        }
        if (ev.cause >= 0)
            edge(ev.cause, i, "issue-after-cause");

        if (ev.tensor == kInvalidTensor)
            continue;
        TensorMatch &m = match[ev.tensor];
        switch (ev.op) {
          case HbOp::KernelAccess:
          case HbOp::RecomputeKernel:
            if (m.pendingSwapInEnd >= 0) {
                edge(m.pendingSwapInEnd, i, "complete-before-use");
                m.pendingSwapInEnd = -1;
            }
            m.lastComputeAccess = static_cast<std::int64_t>(i);
            break;
          case HbOp::SwapOutStart:
            edge(m.lastComputeAccess, i, "retire-before-copy");
            break;
          case HbOp::SwapOutEnd:
            m.pendingSwapOutEnd = static_cast<std::int64_t>(i);
            m.freeSwapOutEnd = static_cast<std::int64_t>(i);
            break;
          case HbOp::SwapInStart:
            if (m.pendingSwapOutEnd >= 0) {
                edge(m.pendingSwapOutEnd, i, "out-before-in");
                m.pendingSwapOutEnd = -1;
            }
            if (m.pendingAlloc >= 0) {
                edge(m.pendingAlloc, i, "alloc-before-copy-in");
                m.pendingAlloc = -1;
            }
            break;
          case HbOp::SwapInEnd:
            m.pendingSwapInEnd = static_cast<std::int64_t>(i);
            break;
          case HbOp::BufferFree:
            if (m.freeSwapOutEnd >= 0) {
                edge(m.freeSwapOutEnd, i, "complete-before-free");
                m.freeSwapOutEnd = -1;
            }
            break;
          case HbOp::BufferAlloc:
            m.pendingAlloc = static_cast<std::int64_t>(i);
            break;
        }
    }
    return edges;
}

} // namespace capu::hb
