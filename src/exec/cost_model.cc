#include "exec/cost_model.hh"

#include <algorithm>

namespace capu
{

double
CostModel::effectiveFlopsFraction(const Operation &op) const
{
    // Saturating efficiency: kernels with ~1 GFLOP of work reach ~2/3 of
    // the plateau; tiny kernels are dominated by underutilized SMs. The
    // 0.5 GFLOP knee is a fit to published cuDNN Pascal benchmarks.
    constexpr double knee = 5e8;
    double saturation = op.flops / (op.flops + knee);
    return dev_.computeEfficiency * (0.15 + 0.85 * saturation);
}

Tick
CostModel::opDuration(const Operation &op, bool fast_algo) const
{
    if (op.category == OpCategory::Source) {
        // Synthetic input batches materialize on-device; only launch cost.
        return dev_.launchOverhead;
    }

    double compute_s = 0;
    if (op.flops > 0) {
        double eff = dev_.peakFlops * effectiveFlopsFraction(op);
        compute_s = op.flops / eff;
        if (fast_algo && op.fastAlgoSpeedup > 1.0)
            compute_s /= op.fastAlgoSpeedup;
    }
    double memory_s = 0;
    if (op.memBytes > 0)
        memory_s = op.memBytes / (dev_.memBandwidth * dev_.memEfficiency);

    double kernel_s = std::max(compute_s, memory_s);
    if (!fast_algo && op.fastWorkspaceBytes > 0)
        kernel_s *= op.fallbackSlowdown;

    return dev_.launchOverhead + static_cast<Tick>(kernel_s * 1e9 + 0.5);
}

} // namespace capu
