/**
 * @file
 * Analytic kernel duration model, calibrated to the paper's P100 testbed.
 *
 * duration = launch_overhead + max(compute_time, memory_time), i.e. a
 * roofline with a per-kernel fixed cost. Compute-bound kernels (conv,
 * matmul) run at a saturating fraction of peak FLOP/s — small kernels get a
 * lower fraction, which is what spreads InceptionV3's 94 convolutions over
 * the ~37x range of Figure 2. Bandwidth-bound kernels (elementwise, norm,
 * pool) run at a fixed fraction of peak memory bandwidth.
 *
 * Convolutions have two algorithms, mirroring cuDNN under a workspace
 * limit: the fast one needs `fastWorkspaceBytes` of scratch; the fallback
 * needs none but is `fallbackSlowdown`x slower (§6.3.2's VGG16 batch-228
 * regression).
 *
 * opDuration() is a pure function of the op's shape fields and the
 * algorithm choice, given a fixed device spec: a handful of floating-point
 * operations, cheaper to recompute than to look up in a shape cache.
 */

#ifndef CAPU_EXEC_COST_MODEL_HH
#define CAPU_EXEC_COST_MODEL_HH

#include <utility>

#include "graph/operation.hh"
#include "sim/gpu_device.hh"
#include "support/units.hh"

namespace capu
{

class CostModel
{
  public:
    explicit CostModel(GpuDeviceSpec device) : dev_(std::move(device)) {}

    /**
     * Kernel duration for `op`.
     * @param fast_algo Whether the workspace-hungry fast algorithm is used
     *                  (only meaningful when op.fastWorkspaceBytes > 0).
     */
    Tick opDuration(const Operation &op, bool fast_algo = true) const;

    /** Fraction of peak FLOP/s this op achieves (saturating in size). */
    double effectiveFlopsFraction(const Operation &op) const;

    const GpuDeviceSpec &device() const { return dev_; }

  private:
    GpuDeviceSpec dev_;
};

} // namespace capu

#endif // CAPU_EXEC_COST_MODEL_HH
