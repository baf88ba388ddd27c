/**
 * @file
 * Layer-level DSL for constructing DNN training graphs.
 *
 * Each method appends the forward op(s) of one layer, computing output
 * shape, tensor sizes (fp32), FLOPs, memory traffic, cuDNN-style workspace
 * demand and the autograd metadata (which feature maps the backward kernels
 * re-read). `finalize()` runs the autograd pass and validates the result.
 *
 * CNN tensors are {N, C, H, W}; the BERT builder (bert.cc) uses the
 * low-level `addForward()` escape hatch with its own shape arithmetic.
 */

#ifndef CAPU_MODELS_BUILDER_HH
#define CAPU_MODELS_BUILDER_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/autograd.hh"
#include "support/strfmt.hh"
#include "graph/graph.hh"

namespace capu
{

class ModelBuilder
{
  public:
    /** Spatial dimensions of a CNN feature map (batch is implicit). */
    struct Dims
    {
        std::int64_t c = 0;
        std::int64_t h = 0;
        std::int64_t w = 0;
    };

    ModelBuilder(std::string model_name, std::int64_t batch);

    std::int64_t batch() const { return batch_; }

    // --- CNN layers (all return the layer's output feature map) ---

    /** Input image batch {N, channels, h, w} produced by a Source op. */
    TensorId input(std::int64_t channels, std::int64_t h, std::int64_t w);

    TensorId conv2d(TensorId in, std::int64_t out_c, std::int64_t kernel,
                    std::int64_t stride = 1, std::int64_t pad = -1,
                    const std::string &name = "");

    /** Asymmetric-kernel convolution (Inception's 1x7 / 7x1 factors). */
    TensorId conv2dAsym(TensorId in, std::int64_t out_c, std::int64_t kh,
                        std::int64_t kw, std::int64_t stride = 1,
                        const std::string &name = "");

    TensorId relu(TensorId in);
    TensorId batchnorm(TensorId in);
    TensorId maxpool(TensorId in, std::int64_t kernel, std::int64_t stride,
                     std::int64_t pad = 0);
    TensorId avgpool(TensorId in, std::int64_t kernel, std::int64_t stride,
                     std::int64_t pad = 0);
    TensorId globalAvgPool(TensorId in);
    TensorId add(TensorId a, TensorId b);
    TensorId concat(const std::vector<TensorId> &parts);
    TensorId fc(TensorId in, std::int64_t out_features);
    TensorId dropout(TensorId in);

    /** conv -> batchnorm -> relu, the standard CNN block. */
    TensorId convBnRelu(TensorId in, std::int64_t out_c, std::int64_t kernel,
                        std::int64_t stride = 1, std::int64_t pad = -1,
                        const std::string &name = "");

    /** Softmax over `classes` followed by loss; returns the loss tensor. */
    TensorId softmaxLoss(TensorId logits);

    // --- low-level escape hatch (BERT builder) ---

    TensorId addActivation(const std::string &name, std::uint64_t bytes,
                           std::vector<std::int64_t> shape = {});
    TensorId addWeight(const std::string &name, std::uint64_t bytes,
                       std::vector<std::int64_t> shape = {});
    OpId addForward(Operation op);

    Graph &graph() { return graph_; }
    const Dims &dims(TensorId id) const;

    /** Run autograd for `loss`, validate, and move the graph out. */
    Graph finalize(TensorId loss);

  private:
    Graph graph_;
    std::int64_t batch_;
    std::unordered_map<TensorId, Dims> dims_;
    std::unordered_map<std::string, int> nameCounts_;

    std::string uniqueName(const std::string &base);
    TensorId featureMap(const std::string &name, const Dims &d);
    static std::uint64_t fmBytes(std::int64_t batch, const Dims &d);
    double elems(const Dims &d) const;
};

} // namespace capu

#endif // CAPU_MODELS_BUILDER_HH
