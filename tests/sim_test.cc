/** @file Unit tests for the DES substrate: streams, PCIe, devices. */

#include <gtest/gtest.h>

#include <vector>

#include "obs/tracer.hh"
#include "sim/gpu_device.hh"
#include "sim/pcie_link.hh"
#include "sim/stream.hh"
#include "support/logging.hh"

using namespace capu;

// --- Stream ---

TEST(Stream, SerializesWork)
{
    Stream s("test");
    EXPECT_EQ(s.enqueue(0, 100, obs::NameId{}), 100u);
    // Ready at 50 but the stream is busy until 100.
    EXPECT_EQ(s.enqueue(50, 10, obs::NameId{}), 110u);
}

TEST(Stream, RespectsReadyTime)
{
    Stream s("test");
    s.enqueue(0, 10, obs::NameId{});
    // Ready long after the stream drains: idle gap.
    EXPECT_EQ(s.enqueue(100, 10, obs::NameId{}), 110u);
    EXPECT_EQ(s.lastStart(), 100u);
}

TEST(Stream, EmitsTraceEvents)
{
    obs::Tracer tracer;
    tracer.setEnabled(true);
    Stream s("test");
    s.attachTracer(&tracer, obs::kTrackCompute);
    s.enqueue(0, 10, tracer.intern("a"));
    s.enqueue(20, 5, tracer.intern("b"));
    std::vector<obs::TraceEvent> evs;
    tracer.forEach([&](const obs::TraceEvent &ev) { evs.push_back(ev); });
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(tracer.name(evs[0].name), "a");
    EXPECT_EQ(evs[0].track, obs::kTrackCompute);
    EXPECT_EQ(evs[1].ts, 20u);
    EXPECT_EQ(evs[1].dur, 5u);
    EXPECT_EQ(s.busyTime(), 15u);
    // attachTracer registers the stream's name for its track.
    bool named = false;
    for (const auto &[track, name] : tracer.trackNames())
        if (track == obs::kTrackCompute && name == "test")
            named = true;
    EXPECT_TRUE(named);
}

TEST(Stream, NoTracerNoEvents)
{
    // Timing semantics identical whether or not a tracer is attached.
    Stream s("test");
    s.enqueue(0, 10, obs::NameId{});
    EXPECT_EQ(s.busyUntil(), 10u);
    EXPECT_EQ(s.busyTime(), 10u);
}

TEST(Stream, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer; // disabled by default
    Stream s("test");
    s.attachTracer(&tracer, obs::kTrackCompute);
    s.enqueue(0, 10, obs::NameId{});
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(s.busyUntil(), 10u);
}

TEST(Stream, Reset)
{
    Stream s("test");
    s.enqueue(0, 10, obs::NameId{});
    s.reset();
    EXPECT_EQ(s.busyUntil(), 0u);
    EXPECT_EQ(s.busyTime(), 0u);
}

// --- PcieLink ---

TEST(Pcie, TransferTimeIsLatencyPlusBandwidth)
{
    PcieLink link(1e9 /* 1 GB/s */, 100 /* ns */);
    // 1e9 bytes at 1 GB/s = 1 s = 1e9 ns, plus latency.
    EXPECT_EQ(link.transferTime(1000000000ull), 1000000100u);
    EXPECT_EQ(link.transferTime(0), 100u);
}

TEST(Pcie, SameDirectionSerializes)
{
    PcieLink link(1e9, 0);
    // 1000 ns each.
    Tick t1 = link.transfer(CopyDir::DeviceToHost, 1000, 0, obs::NameId{});
    Tick t2 = link.transfer(CopyDir::DeviceToHost, 1000, 0, obs::NameId{});
    EXPECT_EQ(t1, 1000u);
    EXPECT_EQ(t2, 2000u); // waits for predecessor (paper section 4.4)
}

TEST(Pcie, OppositeDirectionsConcurrent)
{
    PcieLink link(1e9, 0);
    Tick out = link.transfer(CopyDir::DeviceToHost, 1000, 0, obs::NameId{});
    Tick in = link.transfer(CopyDir::HostToDevice, 1000, 0, obs::NameId{});
    EXPECT_EQ(out, 1000u);
    EXPECT_EQ(in, 1000u); // no interference
}

TEST(Pcie, ZeroBandwidthIsFatal)
{
    EXPECT_THROW(PcieLink(0, 0), FatalError);
}

TEST(Pcie, LaneBusyQuery)
{
    PcieLink link(1e9, 0);
    link.transfer(CopyDir::DeviceToHost, 5000, 0, obs::NameId{});
    EXPECT_EQ(link.laneBusyUntil(CopyDir::DeviceToHost), 5000u);
    EXPECT_EQ(link.laneBusyUntil(CopyDir::HostToDevice), 0u);
}

// --- GpuDeviceSpec ---

TEST(GpuDevice, P100Preset)
{
    auto d = GpuDeviceSpec::p100();
    EXPECT_GT(d.memCapacity, 15ull << 30);
    EXPECT_LE(d.memCapacity, 16ull << 30);
    EXPECT_DOUBLE_EQ(d.pcieBandwidth, 12e9); // the paper's measured rate
}

TEST(GpuDevice, V100HasMoreOfEverything)
{
    auto p = GpuDeviceSpec::p100();
    auto v = GpuDeviceSpec::v100();
    EXPECT_GT(v.memCapacity, p.memCapacity);
    EXPECT_GT(v.peakFlops, p.peakFlops);
}

TEST(GpuDevice, TestDeviceCapacity)
{
    auto d = GpuDeviceSpec::testDevice(1_MiB);
    EXPECT_EQ(d.memCapacity, 1_MiB);
}
