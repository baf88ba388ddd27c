/**
 * @file
 * Static description of the simulated GPU + host link.
 *
 * These constants feed the analytic kernel cost model and the PCIe link.
 * They are calibrated once from public datasheets (not fitted to the paper's
 * result tables): the paper's testbed is a Tesla P100 (16 GiB HBM2,
 * 9.3 TFLOP/s fp32, 732 GB/s) on PCIe 3.0 x16 (~12 GB/s effective pinned
 * bandwidth, per the paper's own measurement).
 */

#ifndef CAPU_SIM_GPU_DEVICE_HH
#define CAPU_SIM_GPU_DEVICE_HH

#include <cstdint>
#include <string>

#include "support/units.hh"

namespace capu
{

struct GpuDeviceSpec
{
    std::string name;

    /** Peak single-precision throughput, FLOP per second. */
    double peakFlops = 9.3e12;

    /** Device memory bandwidth, bytes per second. */
    double memBandwidth = 732e9;

    /** Usable device memory for the framework's memory pool. */
    std::uint64_t memCapacity = 0;

    /** Effective pinned-memory PCIe bandwidth per direction, bytes/s. */
    double pcieBandwidth = 12e9;

    /** Fixed PCIe transfer setup latency. */
    Tick pcieLatency = ticksFromUs(10);

    /** Kernel launch + scheduling overhead added to every kernel. */
    Tick launchOverhead = ticksFromUs(5);

    /**
     * Fraction of peak FLOP/s that large compute-bound kernels achieve
     * (cuDNN convolutions typically reach 55-75% of peak on Pascal).
     */
    double computeEfficiency = 0.62;

    /** Fraction of peak memory bandwidth achieved by bandwidth-bound ops. */
    double memEfficiency = 0.75;

    /** Tesla P100-PCIE-16GB: the paper's testbed. */
    static GpuDeviceSpec p100();

    /** Tesla V100-SXM2-32GB: used for capacity-sensitivity ablations. */
    static GpuDeviceSpec v100();

    /** A deliberately tiny device for unit tests (fast OOM). */
    static GpuDeviceSpec testDevice(std::uint64_t capacity_bytes);

    /** The CLI device names: "p100" or "v100"; fatal() on anything else. */
    static GpuDeviceSpec byName(const std::string &name);
};

} // namespace capu

#endif // CAPU_SIM_GPU_DEVICE_HH
