/**
 * @file
 * Reverse-mode autograd: appends the backward + update ops to a graph.
 *
 * This is the substrate that creates the paper's memory problem: each
 * forward op declares (via `savedForBackward`) which feature maps its
 * gradient kernels re-read, so those tensors stay live from their forward
 * production to their backward consumption — the "large gap between two
 * accesses" of §1. The pass is generic over op categories; builders only
 * fill in the autograd metadata when emitting forward ops.
 *
 * Generated structure per forward op O (in reverse topological order):
 *  - `O:bwd_data`  — produces partial d(input) for every input in
 *    O.gradInputs; reads d(output) and O.savedForBackward.
 *  - `O:bwd_filter` — produces d(weight) for every weight in O.gradParams.
 *  - `add_grad` accumulation ops where a tensor feeds multiple consumers
 *    (ResNet skip connections, Inception/DenseNet concats).
 *  - `W:update` — SGD update per weight, consuming d(W); it moves three
 *    weight-sized tensors (weight read, gradient read, weight write).
 */

#ifndef CAPU_GRAPH_AUTOGRAD_HH
#define CAPU_GRAPH_AUTOGRAD_HH

#include "graph/graph.hh"

namespace capu
{

struct AutogradResult
{
    std::size_t backwardOps = 0;
    std::size_t updateOps = 0;
    std::size_t gradTensors = 0;
};

/**
 * Build the backward pass for `loss` in place.
 *
 * @param graph Forward graph; backward/update ops are appended.
 * @param loss The scalar loss tensor (output of the Loss op).
 */
AutogradResult buildBackward(Graph &graph, TensorId loss);

} // namespace capu

#endif // CAPU_GRAPH_AUTOGRAD_HH
