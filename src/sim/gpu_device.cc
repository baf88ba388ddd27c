#include "sim/gpu_device.hh"

#include "support/logging.hh"

namespace capu
{

GpuDeviceSpec
GpuDeviceSpec::p100()
{
    GpuDeviceSpec d;
    d.name = "Tesla P100-PCIE-16GB";
    d.peakFlops = 9.3e12;
    d.memBandwidth = 732e9;
    // 16 GiB board memory minus CUDA context/runtime reservations; matches
    // what TensorFlow's BFC pool actually gets on a 16 GiB card.
    d.memCapacity = (15ull << 30) + (512ull << 20);
    d.pcieBandwidth = 12e9;
    return d;
}

GpuDeviceSpec
GpuDeviceSpec::v100()
{
    GpuDeviceSpec d;
    d.name = "Tesla V100-SXM2-32GB";
    d.peakFlops = 15.7e12;
    d.memBandwidth = 900e9;
    d.memCapacity = 31ull << 30;
    d.pcieBandwidth = 12e9;
    return d;
}

GpuDeviceSpec
GpuDeviceSpec::testDevice(std::uint64_t capacity_bytes)
{
    GpuDeviceSpec d;
    d.name = "TestGPU";
    d.peakFlops = 1e12;
    d.memBandwidth = 100e9;
    d.memCapacity = capacity_bytes;
    d.pcieBandwidth = 10e9;
    d.pcieLatency = ticksFromUs(1);
    d.launchOverhead = ticksFromUs(1);
    d.computeEfficiency = 1.0;
    d.memEfficiency = 1.0;
    return d;
}

GpuDeviceSpec
GpuDeviceSpec::byName(const std::string &name)
{
    if (name == "p100")
        return p100();
    if (name == "v100")
        return v100();
    fatal("unknown device '{}' (p100 or v100)", name);
}

} // namespace capu
