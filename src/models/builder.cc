#include "models/builder.hh"

#include <algorithm>

#include "support/logging.hh"

namespace capu
{

namespace
{
constexpr std::uint64_t kFp32 = 4;

/** cuDNN-style workspace demand for the fast convolution algorithm. */
std::uint64_t
convWorkspace(std::uint64_t out_bytes)
{
    // Winograd / implicit-precomp-GEMM scratch grows with the output tile
    // volume but cuDNN caps it; 256 MiB matches the cap TensorFlow requests.
    return std::min<std::uint64_t>(out_bytes / 2 + (8ull << 20),
                                   256ull << 20);
}
} // namespace

ModelBuilder::ModelBuilder(std::string model_name, std::int64_t batch)
    : graph_(std::move(model_name)), batch_(batch)
{
    if (batch <= 0)
        fatal("batch size must be positive, got {}", batch);
}

std::string
ModelBuilder::uniqueName(const std::string &base)
{
    int n = nameCounts_[base]++;
    if (n == 0)
        return base;
    return base + "_" + std::to_string(n);
}

std::uint64_t
ModelBuilder::fmBytes(std::int64_t batch, const Dims &d)
{
    return static_cast<std::uint64_t>(batch) * d.c * d.h * d.w * kFp32;
}

double
ModelBuilder::elems(const Dims &d) const
{
    return static_cast<double>(batch_) * d.c * d.h * d.w;
}

TensorId
ModelBuilder::featureMap(const std::string &name, const Dims &d)
{
    TensorId id = graph_.addTensor(name, fmBytes(batch_, d),
                                   TensorKind::FeatureMap,
                                   {batch_, d.c, d.h, d.w});
    dims_[id] = d;
    return id;
}

const ModelBuilder::Dims &
ModelBuilder::dims(TensorId id) const
{
    auto it = dims_.find(id);
    if (it == dims_.end())
        panic("tensor {} has no tracked dims", id);
    return it->second;
}

TensorId
ModelBuilder::input(std::int64_t channels, std::int64_t h, std::int64_t w)
{
    Dims d{channels, h, w};
    TensorId out = featureMap(uniqueName("images"), d);
    Operation op;
    op.name = uniqueName("data_source");
    op.category = OpCategory::Source;
    op.outputs = {out};
    op.flops = 0;
    op.memBytes = static_cast<double>(fmBytes(batch_, d));
    op.recomputable = false;
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::conv2d(TensorId in, std::int64_t out_c, std::int64_t kernel,
                     std::int64_t stride, std::int64_t pad,
                     const std::string &name)
{
    const Dims &din = dims(in);
    if (pad < 0)
        pad = kernel / 2; // SAME padding by default
    Dims dout;
    dout.c = out_c;
    dout.h = (din.h + 2 * pad - kernel) / stride + 1;
    dout.w = (din.w + 2 * pad - kernel) / stride + 1;
    if (dout.h <= 0 || dout.w <= 0)
        fatal("conv reduces {}x{} below 1x1", din.h, din.w);

    std::string base = name.empty() ? "conv" : name;
    std::string op_name = uniqueName(base);

    std::uint64_t w_bytes = static_cast<std::uint64_t>(out_c) * din.c *
                            kernel * kernel * kFp32;
    TensorId weight = graph_.addTensor(op_name + ":w", w_bytes,
                                       TensorKind::Weight,
                                       {out_c, din.c, kernel, kernel});
    TensorId out = featureMap(op_name + ":out", dout);

    Operation op;
    op.name = op_name;
    op.category = OpCategory::Conv;
    op.inputs = {in, weight};
    op.outputs = {out};
    op.flops = 2.0 * elems(dout) * din.c * kernel * kernel;
    op.memBytes = static_cast<double>(fmBytes(batch_, din)) + w_bytes +
                  fmBytes(batch_, dout);
    op.fastWorkspaceBytes = convWorkspace(fmBytes(batch_, dout));
    if (kernel == 3 && stride == 1) {
        // cuDNN picks Winograd here: ~2.25x fewer FLOPs, needs workspace.
        op.fastAlgoSpeedup = 2.25;
        op.fallbackSlowdown = 1.3;
    } else {
        op.fallbackSlowdown = 2.2;
    }
    op.gradInputs = {in};
    op.gradParams = {weight};
    op.savedForBackward = {in, weight};
    op.bwdFlopsScale = 1.0; // each bwd kernel ~= fwd flops
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::conv2dAsym(TensorId in, std::int64_t out_c, std::int64_t kh,
                         std::int64_t kw, std::int64_t stride,
                         const std::string &name)
{
    const Dims &din = dims(in);
    Dims dout;
    dout.c = out_c;
    dout.h = (din.h + 2 * (kh / 2) - kh) / stride + 1;
    dout.w = (din.w + 2 * (kw / 2) - kw) / stride + 1;

    std::string base = name.empty() ? "conv" : name;
    std::string op_name = uniqueName(base);

    std::uint64_t w_bytes =
        static_cast<std::uint64_t>(out_c) * din.c * kh * kw * kFp32;
    TensorId weight = graph_.addTensor(op_name + ":w", w_bytes,
                                       TensorKind::Weight,
                                       {out_c, din.c, kh, kw});
    TensorId out = featureMap(op_name + ":out", dout);

    Operation op;
    op.name = op_name;
    op.category = OpCategory::Conv;
    op.inputs = {in, weight};
    op.outputs = {out};
    op.flops = 2.0 * elems(dout) * din.c * kh * kw;
    op.memBytes = static_cast<double>(fmBytes(batch_, din)) + w_bytes +
                  fmBytes(batch_, dout);
    op.fastWorkspaceBytes = convWorkspace(fmBytes(batch_, dout));
    op.fallbackSlowdown = 2.2;
    op.gradInputs = {in};
    op.gradParams = {weight};
    op.savedForBackward = {in, weight};
    op.bwdFlopsScale = 1.0;
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::relu(TensorId in)
{
    const Dims &d = dims(in);
    std::string op_name = uniqueName("relu");
    TensorId out = featureMap(op_name + ":out", d);
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Elementwise;
    op.inputs = {in};
    op.outputs = {out};
    op.flops = elems(d);
    op.memBytes = 2.0 * fmBytes(batch_, d);
    op.inplaceEligible = true; // TF computes ReLU in place in graph mode
    op.gradInputs = {in};
    op.savedForBackward = {out}; // d_in = d_out * (out > 0)
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::batchnorm(TensorId in)
{
    const Dims &d = dims(in);
    std::string op_name = uniqueName("bn");
    TensorId scale = graph_.addTensor(op_name + ":scale", 2 * d.c * kFp32,
                                      TensorKind::Weight, {2, d.c});
    TensorId out = featureMap(op_name + ":out", d);
    // cuDNN batchnorm saves per-channel mean/invstd for the backward pass.
    TensorId stats = graph_.addTensor(op_name + ":stats", 2 * d.c * kFp32,
                                      TensorKind::FeatureMap, {2, d.c});
    dims_[stats] = Dims{2 * d.c, 1, 1};
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Normalize;
    op.inputs = {in, scale};
    op.outputs = {out, stats};
    op.flops = 8.0 * elems(d); // two reduction passes + normalize
    op.memBytes = 3.0 * fmBytes(batch_, d);
    op.gradInputs = {in};
    op.gradParams = {scale};
    op.savedForBackward = {in, stats};
    op.bwdFlopsScale = 1.5;
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::maxpool(TensorId in, std::int64_t kernel, std::int64_t stride,
                      std::int64_t pad)
{
    const Dims &din = dims(in);
    Dims dout{din.c, (din.h + 2 * pad - kernel) / stride + 1,
              (din.w + 2 * pad - kernel) / stride + 1};
    std::string op_name = uniqueName("maxpool");
    TensorId out = featureMap(op_name + ":out", dout);
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Pool;
    op.inputs = {in};
    op.outputs = {out};
    op.flops = elems(din) * kernel * kernel / (stride * stride);
    op.memBytes = static_cast<double>(fmBytes(batch_, din)) +
                  fmBytes(batch_, dout);
    op.gradInputs = {in};
    op.savedForBackward = {in, out}; // cuDNN max-pool bwd reads both
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::avgpool(TensorId in, std::int64_t kernel, std::int64_t stride,
                      std::int64_t pad)
{
    const Dims &din = dims(in);
    Dims dout{din.c, (din.h + 2 * pad - kernel) / stride + 1,
              (din.w + 2 * pad - kernel) / stride + 1};
    std::string op_name = uniqueName("avgpool");
    TensorId out = featureMap(op_name + ":out", dout);
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Pool;
    op.inputs = {in};
    op.outputs = {out};
    op.flops = elems(din);
    op.memBytes = static_cast<double>(fmBytes(batch_, din)) +
                  fmBytes(batch_, dout);
    op.gradInputs = {in};
    op.savedForBackward = {}; // avg-pool bwd is shape-only
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::globalAvgPool(TensorId in)
{
    const Dims &din = dims(in);
    return avgpool(in, din.h, din.h, 0);
}

TensorId
ModelBuilder::add(TensorId a, TensorId b)
{
    const Dims &d = dims(a);
    if (fmBytes(batch_, d) != fmBytes(batch_, dims(b)))
        fatal("add of mismatched tensors {} and {}", a, b);
    std::string op_name = uniqueName("add");
    TensorId out = featureMap(op_name + ":out", d);
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Elementwise;
    op.inputs = {a, b};
    op.outputs = {out};
    op.flops = elems(d);
    op.memBytes = 3.0 * fmBytes(batch_, d);
    op.inplaceEligible = true; // accumulate into one operand
    op.gradInputs = {a, b};
    op.savedForBackward = {}; // grads pass straight through
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::concat(const std::vector<TensorId> &parts)
{
    if (parts.empty())
        fatal("concat of zero tensors");
    Dims d = dims(parts.front());
    d.c = 0;
    double total = 0;
    for (TensorId p : parts) {
        const Dims &dp = dims(p);
        if (dp.h != d.h || dp.w != d.w)
            fatal("concat with mismatched spatial dims");
        d.c += dp.c;
        total += fmBytes(batch_, dp);
    }
    std::string op_name = uniqueName("concat");
    TensorId out = featureMap(op_name + ":out", d);
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Elementwise;
    op.inputs = parts;
    op.outputs = {out};
    op.flops = elems(d) * 0.25; // pure copy
    op.memBytes = 2.0 * total;
    op.gradInputs = parts;
    op.savedForBackward = {};
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::fc(TensorId in, std::int64_t out_features)
{
    const Dims &din = dims(in);
    std::int64_t in_features = din.c * din.h * din.w;
    Dims dout{out_features, 1, 1};
    std::string op_name = uniqueName("fc");
    std::uint64_t w_bytes =
        static_cast<std::uint64_t>(in_features) * out_features * kFp32;
    TensorId weight = graph_.addTensor(op_name + ":w", w_bytes,
                                       TensorKind::Weight,
                                       {in_features, out_features});
    TensorId out = featureMap(op_name + ":out", dout);
    Operation op;
    op.name = op_name;
    op.category = OpCategory::MatMul;
    op.inputs = {in, weight};
    op.outputs = {out};
    op.flops = 2.0 * batch_ * in_features * out_features;
    op.memBytes = static_cast<double>(fmBytes(batch_, din)) + w_bytes +
                  fmBytes(batch_, dout);
    op.gradInputs = {in};
    op.gradParams = {weight};
    op.savedForBackward = {in, weight};
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::dropout(TensorId in)
{
    const Dims &d = dims(in);
    std::string op_name = uniqueName("dropout");
    TensorId out = featureMap(op_name + ":out", d);
    // The kept-element mask (1 byte/elem) must survive to the backward pass.
    TensorId mask = graph_.addTensor(
        op_name + ":mask", static_cast<std::uint64_t>(elems(d)),
        TensorKind::FeatureMap, {batch_, d.c, d.h, d.w});
    dims_[mask] = d;
    Operation op;
    op.name = op_name;
    op.category = OpCategory::Elementwise;
    op.inputs = {in};
    op.outputs = {out, mask};
    op.flops = elems(d);
    op.memBytes = 2.25 * fmBytes(batch_, d);
    op.gradInputs = {in};
    op.savedForBackward = {mask};
    graph_.addOp(std::move(op));
    return out;
}

TensorId
ModelBuilder::convBnRelu(TensorId in, std::int64_t out_c, std::int64_t kernel,
                         std::int64_t stride, std::int64_t pad,
                         const std::string &name)
{
    return relu(batchnorm(conv2d(in, out_c, kernel, stride, pad, name)));
}

TensorId
ModelBuilder::softmaxLoss(TensorId logits)
{
    const Dims &d = dims(logits);
    std::string sm_name = uniqueName("softmax");
    TensorId probs = featureMap(sm_name + ":out", d);
    Operation sm;
    sm.name = sm_name;
    sm.category = OpCategory::Softmax;
    sm.inputs = {logits};
    sm.outputs = {probs};
    sm.flops = 4.0 * elems(d);
    sm.memBytes = 2.0 * fmBytes(batch_, d);
    sm.gradInputs = {logits};
    sm.savedForBackward = {probs};
    graph_.addOp(std::move(sm));

    std::string loss_name = uniqueName("loss");
    TensorId loss = graph_.addTensor(loss_name + ":out", batch_ * kFp32,
                                     TensorKind::FeatureMap, {batch_});
    dims_[loss] = Dims{1, 1, 1};
    Operation op;
    op.name = loss_name;
    op.category = OpCategory::Loss;
    op.inputs = {probs};
    op.outputs = {loss};
    op.flops = elems(d);
    op.memBytes = static_cast<double>(fmBytes(batch_, d));
    op.gradInputs = {probs};
    op.savedForBackward = {probs};
    graph_.addOp(std::move(op));
    return loss;
}

TensorId
ModelBuilder::addActivation(const std::string &name, std::uint64_t bytes,
                            std::vector<std::int64_t> shape)
{
    TensorId id = graph_.addTensor(uniqueName(name), bytes,
                                   TensorKind::FeatureMap, std::move(shape));
    dims_[id] = Dims{static_cast<std::int64_t>(bytes / kFp32), 1, 1};
    return id;
}

TensorId
ModelBuilder::addWeight(const std::string &name, std::uint64_t bytes,
                        std::vector<std::int64_t> shape)
{
    return graph_.addTensor(uniqueName(name), bytes, TensorKind::Weight,
                            std::move(shape));
}

OpId
ModelBuilder::addForward(Operation op)
{
    op.phase = Phase::Forward;
    op.name = uniqueName(op.name);
    return graph_.addOp(std::move(op));
}

Graph
ModelBuilder::finalize(TensorId loss)
{
    buildBackward(graph_, loss);
    graph_.validate();
    return std::move(graph_);
}

} // namespace capu
