#include "policy/vdnn_policy.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu
{

namespace
{
/** Feature maps smaller than this are not worth a PCIe round trip. */
constexpr std::uint64_t kMinOffloadBytes = 1ull << 20;
} // namespace

std::string
VdnnPolicy::name() const
{
    return mode_ == Mode::ConvOnly ? "vDNN-conv" : "vDNN";
}

void
VdnnPolicy::attach(const Graph &graph, const std::vector<OpId> &schedule,
                   const ExecConfig &config)
{
    (void)config;
    targets_.clear();
    targetIndex_.clear();
    offloadAfter_.clear();
    isForwardOp_.assign(graph.numOps(), false);

    std::unordered_map<OpId, std::size_t> pos;
    for (std::size_t i = 0; i < schedule.size(); ++i)
        pos[schedule[i]] = i;

    // Collect layer-input feature maps in forward order, dedup'd.
    std::vector<bool> seen(graph.numTensors(), false);
    for (OpId id : schedule) {
        const Operation &op = graph.op(id);
        if (op.phase != Phase::Forward)
            continue;
        isForwardOp_[id] = true;
        bool is_layer = op.category == OpCategory::Conv ||
                        (mode_ == Mode::All &&
                         op.category != OpCategory::Source);
        if (!is_layer)
            continue;
        for (TensorId in : op.inputs) {
            const TensorDesc &t = graph.tensor(in);
            if (t.kind != TensorKind::FeatureMap ||
                t.bytes < kMinOffloadBytes || seen[in])
                continue;
            // Only offload tensors that are actually needed again in the
            // backward pass; purely-forward temporaries die by refcount.
            bool backward_use = false;
            for (OpId c : graph.consumers(in)) {
                if (graph.op(c).phase != Phase::Forward)
                    backward_use = true;
            }
            if (!backward_use)
                continue;
            seen[in] = true;
            targets_.push_back(in);
        }
    }

    // Offload each target after its last forward consumer retires.
    for (std::size_t i = 0; i < targets_.size(); ++i) {
        TensorId t = targets_[i];
        targetIndex_[t] = i;
        OpId last_fwd = kInvalidOp;
        std::size_t last_pos = 0;
        for (OpId c : graph.consumers(t)) {
            if (graph.op(c).phase != Phase::Forward)
                continue;
            if (last_fwd == kInvalidOp || pos[c] > last_pos) {
                last_fwd = c;
                last_pos = pos[c];
            }
        }
        if (last_fwd != kInvalidOp)
            offloadAfter_[last_fwd].push_back(t);
    }
}

void
VdnnPolicy::beginIteration(ExecContext &ctx)
{
    (void)ctx;
}

void
VdnnPolicy::afterOp(ExecContext &ctx, OpId op, Tick op_end)
{
    (void)op_end;
    auto it = offloadAfter_.find(op);
    if (it == offloadAfter_.end())
        return;
    for (TensorId t : it->second) {
        ctx.obs().tracer.instant(obs::kTrackPolicy,
                                 obs::EventKind::Decision, ctx.now(),
                                 "vdnn.offload",
                                 static_cast<std::int64_t>(t));
        ctx.obs().metrics.add("vdnn.offloads");
        // Coupled swap-out: vDNN synchronizes the next layer on the copy.
        ctx.evictSwapBlocking(t);
    }
}

void
VdnnPolicy::onAccess(ExecContext &ctx, const AccessEvent &event)
{
    if (observer_ && ctx.iteration() == 0)
        observer_(ctx, event);
    // Static one-ahead prefetch: the backward access of target[i] triggers
    // the fetch of target[i-1] (the next one the backward pass will need).
    if (event.isOutput)
        return;
    if (event.op != kInvalidOp && isForwardOp_[event.op])
        return;
    auto it = targetIndex_.find(event.tensor);
    if (it == targetIndex_.end() || it->second == 0)
        return;
    TensorId prev = targets_[it->second - 1];
    if (ctx.status(prev) == TensorStatus::Out) {
        ctx.obs().tracer.instant(obs::kTrackPolicy,
                                 obs::EventKind::Decision, ctx.now(),
                                 "vdnn.prefetch",
                                 static_cast<std::int64_t>(prev));
        ctx.obs().metrics.add("vdnn.prefetches");
        ctx.prefetchAsync(prev);
    }
}

void
VdnnPolicy::endIteration(ExecContext &ctx, const IterationStats &stats)
{
    (void)stats;
    if (audit_ && ctx.iteration() == 0)
        audit_(*this, ctx);
}

std::unique_ptr<MemoryPolicy>
makeVdnnPolicy(VdnnPolicy::Mode mode)
{
    return std::make_unique<VdnnPolicy>(mode);
}

} // namespace capu
