#include "graph/autograd.hh"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "support/logging.hh"

namespace capu
{

namespace
{

/**
 * Update-op memory traffic in weight sizes: SGD reads the weight and its
 * gradient and writes the weight back.
 */
constexpr double kUpdateBytesScale = 3.0;

/** Sum of tensor sizes, for the roofline memBytes of generated ops. */
double
sumBytes(const Graph &g, const std::vector<TensorId> &ids)
{
    double total = 0;
    for (TensorId id : ids)
        total += static_cast<double>(g.tensor(id).bytes);
    return total;
}

class BackwardBuilder
{
  public:
    BackwardBuilder(Graph &graph, TensorId loss) : g_(graph), loss_(loss) {}

    AutogradResult run();

  private:
    Graph &g_;
    TensorId loss_;
    AutogradResult result_;

    /** Accumulated gradient tensor per forward tensor. */
    std::unordered_map<TensorId, TensorId> gradOf_;

    TensorId makeGradTensor(TensorId of, const char *suffix);
    void accumulate(TensorId forward_tensor, TensorId partial);
    void seedLossGrad();
    /**
     * @param fwd Copy of the forward op: addOp() reallocates the op
     *            vector, so references into it must not be held here.
     */
    void emitBackwardFor(Operation fwd,
                         const std::vector<bool> &grad_needed);
    void emitUpdates();
};

TensorId
BackwardBuilder::makeGradTensor(TensorId of, const char *suffix)
{
    const TensorDesc &t = g_.tensor(of);
    ++result_.gradTensors;
    return g_.addTensor("d_" + t.name + suffix, t.bytes,
                        TensorKind::Gradient, t.shape);
}

void
BackwardBuilder::accumulate(TensorId forward_tensor, TensorId partial)
{
    auto it = gradOf_.find(forward_tensor);
    if (it == gradOf_.end()) {
        gradOf_.emplace(forward_tensor, partial);
        return;
    }
    // Second contribution: materialize an elementwise add.
    TensorId sum = makeGradTensor(forward_tensor, ":sum");
    Operation add;
    add.name = "add_grad:" + g_.tensor(forward_tensor).name;
    add.category = OpCategory::Elementwise;
    add.phase = Phase::Backward;
    add.inputs = {it->second, partial};
    add.outputs = {sum};
    add.flops = static_cast<double>(g_.tensor(sum).bytes) / 4.0;
    add.memBytes = sumBytes(g_, add.inputs) + sumBytes(g_, add.outputs);
    add.inplaceEligible = true; // accumulate into the running partial
    g_.addOp(std::move(add));
    ++result_.backwardOps;
    it->second = sum;
}

void
BackwardBuilder::seedLossGrad()
{
    TensorId d_loss = makeGradTensor(loss_, "");
    Operation seed;
    seed.name = "loss:grad_seed";
    seed.category = OpCategory::Elementwise;
    seed.phase = Phase::Backward;
    seed.inputs = {loss_};
    seed.outputs = {d_loss};
    seed.flops = 1;
    seed.memBytes = sumBytes(g_, seed.inputs) + sumBytes(g_, seed.outputs);
    g_.addOp(std::move(seed));
    ++result_.backwardOps;
    gradOf_.emplace(loss_, d_loss);
}

void
BackwardBuilder::emitBackwardFor(Operation fwd,
                                 const std::vector<bool> &grad_needed)
{
    // Gradients of this op's outputs; absent means no path to the loss.
    std::vector<TensorId> grad_outs;
    for (TensorId out : fwd.outputs) {
        auto it = gradOf_.find(out);
        if (it != gradOf_.end())
            grad_outs.push_back(it->second);
    }
    if (grad_outs.empty())
        return;

    // Propagate to data inputs that need gradients. Skip graph inputs
    // (Source outputs) — frameworks do not differentiate w.r.t. data.
    std::vector<TensorId> data_targets;
    for (TensorId in : fwd.gradInputs) {
        if (grad_needed[in])
            data_targets.push_back(in);
    }

    if (!data_targets.empty()) {
        Operation bwd;
        bwd.name = fwd.name + ":bwd_data";
        bwd.category = fwd.category;
        bwd.phase = Phase::Backward;
        bwd.inputs = grad_outs;
        for (TensorId saved : fwd.savedForBackward)
            bwd.inputs.push_back(saved);
        for (TensorId t : data_targets)
            bwd.outputs.push_back(makeGradTensor(t, ""));
        bwd.flops = fwd.flops * fwd.bwdFlopsScale;
        bwd.memBytes = sumBytes(g_, bwd.inputs) + sumBytes(g_, bwd.outputs);
        bwd.fastWorkspaceBytes = fwd.fastWorkspaceBytes;
        bwd.fallbackSlowdown = fwd.fallbackSlowdown;
        bwd.fastAlgoSpeedup = fwd.fastAlgoSpeedup;
        OpId id = g_.addOp(bwd);
        ++result_.backwardOps;
        for (std::size_t i = 0; i < data_targets.size(); ++i)
            accumulate(data_targets[i], g_.op(id).outputs[i]);
    }

    if (!fwd.gradParams.empty()) {
        Operation bwd;
        bwd.name = fwd.name + ":bwd_filter";
        bwd.category = fwd.category;
        bwd.phase = Phase::Backward;
        bwd.inputs = grad_outs;
        for (TensorId saved : fwd.savedForBackward)
            bwd.inputs.push_back(saved);
        for (TensorId w : fwd.gradParams)
            bwd.outputs.push_back(makeGradTensor(w, ""));
        bwd.flops = fwd.flops * fwd.bwdFlopsScale;
        bwd.memBytes = sumBytes(g_, bwd.inputs) + sumBytes(g_, bwd.outputs);
        bwd.fastWorkspaceBytes = fwd.fastWorkspaceBytes;
        bwd.fallbackSlowdown = fwd.fallbackSlowdown;
        bwd.fastAlgoSpeedup = fwd.fastAlgoSpeedup;
        OpId id = g_.addOp(bwd);
        ++result_.backwardOps;
        for (std::size_t i = 0; i < fwd.gradParams.size(); ++i)
            accumulate(fwd.gradParams[i], g_.op(id).outputs[i]);
    }
}

void
BackwardBuilder::emitUpdates()
{
    // Iterate in tensor-id order for determinism.
    std::vector<std::pair<TensorId, TensorId>> updates;
    for (const auto &[t, grad] : gradOf_) {
        if (g_.tensor(t).kind == TensorKind::Weight)
            updates.emplace_back(t, grad);
    }
    std::sort(updates.begin(), updates.end());
    for (auto [w, grad] : updates) {
        Operation up;
        up.name = g_.tensor(w).name + ":update";
        up.category = OpCategory::Update;
        up.phase = Phase::Update;
        up.inputs = {w, grad};
        up.outputs = {};
        up.flops = static_cast<double>(g_.tensor(w).bytes) / 4.0 * 2.0;
        up.memBytes =
            static_cast<double>(g_.tensor(w).bytes) * kUpdateBytesScale;
        up.recomputable = false; // has side effects on the weight
        g_.addOp(std::move(up));
        ++result_.updateOps;
    }
}

AutogradResult
BackwardBuilder::run()
{
    auto order = g_.topoOrder();

    // grad_needed[t]: d(loss)/d(t) must be materialized. Reverse sweep.
    std::vector<bool> grad_needed(g_.numTensors(), false);
    grad_needed[loss_] = true;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const Operation &op = g_.op(*it);
        bool any_out = false;
        for (TensorId out : op.outputs)
            any_out = any_out || grad_needed[out];
        if (!any_out)
            continue;
        for (TensorId in : op.gradInputs) {
            const TensorDesc &t = g_.tensor(in);
            bool is_graph_input =
                t.producer == kInvalidOp ||
                g_.op(t.producer).category == OpCategory::Source;
            if (!is_graph_input)
                grad_needed[in] = true;
        }
        for (TensorId w : op.gradParams)
            grad_needed[w] = true;
    }

    seedLossGrad();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        if (g_.op(*it).phase == Phase::Forward)
            emitBackwardFor(g_.op(*it), grad_needed);
    }
    emitUpdates();
    return result_;
}

} // namespace

AutogradResult
buildBackward(Graph &graph, TensorId loss)
{
    if (graph.tensor(loss).producer == kInvalidOp)
        fatal("loss tensor {} has no producer", graph.tensor(loss).name);
    BackwardBuilder builder(graph, loss);
    return builder.run();
}

} // namespace capu
