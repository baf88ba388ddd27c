/**
 * @file
 * Tests for the extension features: the LSTM workload, trace
 * serialization, swap compression, and tracker-side iteration-boundary
 * detection.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/capuchin_policy.hh"
#include "core/trace_io.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/noop_policy.hh"
#include "support/logging.hh"

using namespace capu;

// --- LSTM workload ---

TEST(Lstm, BuildsAndValidates)
{
    Graph g = buildLstm(4);
    EXPECT_NO_THROW(g.validate());
    EXPECT_GT(g.numOps(), 500u);
}

TEST(Lstm, WeightsAreAccessedEveryTimestep)
{
    LstmConfig cfg;
    cfg.timesteps = 16;
    Graph g = buildLstm(4, cfg);
    // The layer-0 recurrent weight feeds one gemm per timestep plus its
    // backward ops: far more consumers than any CNN weight.
    for (const auto &t : g.tensors()) {
        if (t.name == "lstm0:w") {
            EXPECT_GE(g.consumers(t.id).size(),
                      static_cast<std::size_t>(cfg.timesteps));
            return;
        }
    }
    FAIL() << "lstm0:w not found";
}

TEST(Lstm, TrainsUnderCapuchinWhenOversubscribed)
{
    // Beyond the unmanaged maximum (~580 at the default config).
    ExecConfig cfg;
    Session base(buildLstm(800), cfg, makeNoOpPolicy());
    EXPECT_TRUE(base.run(1).oom);

    Session capu(buildLstm(800), cfg, makeCapuchinPolicy());
    auto r = capu.run(4);
    EXPECT_FALSE(r.oom) << r.oomMessage;
}

TEST(Lstm, ParamCountMatchesFormula)
{
    LstmConfig cfg;
    Graph g = buildLstm(1, cfg);
    // Per layer: (in + hidden) * 4 * hidden; plus vocab projection,
    // initial states, embeddings excluded (source op).
    std::uint64_t expect = 0;
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
        std::int64_t in = l == 0 ? cfg.embedDim : cfg.hidden;
        expect += static_cast<std::uint64_t>(in + cfg.hidden) * 4 *
                  cfg.hidden * 4;
    }
    expect += static_cast<std::uint64_t>(cfg.hidden) * cfg.vocab * 4;
    std::uint64_t got = g.bytesOfKind(TensorKind::Weight);
    EXPECT_GE(got, expect);
    EXPECT_LE(got, expect + (4ull << 20)); // + initial states
}

// --- trace serialization ---

namespace
{

TensorTrace
capturedResNetTrace(std::int64_t batch)
{
    CapuchinPolicy *capu = nullptr;
    auto p = makeCapuchinPolicy();
    capu = static_cast<CapuchinPolicy *>(p.get());
    Session s(buildResNet(batch, 50), ExecConfig{}, std::move(p));
    auto r = s.run(1);
    EXPECT_FALSE(r.oom);
    return captureTrace(capu->tracker(), s.graph());
}

/** readTrace's FatalError message for `text`, or "" when it parses. */
std::string
traceError(const std::string &text)
{
    std::stringstream ss(text);
    try {
        readTrace(ss);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(TraceIo, RoundTripPreservesEverything)
{
    TensorTrace trace = capturedResNetTrace(32);
    ASSERT_GT(trace.records.size(), 100u);

    std::stringstream ss;
    writeTrace(ss, trace);
    TensorTrace back = readTrace(ss);

    ASSERT_EQ(back.records.size(), trace.records.size());
    ASSERT_EQ(back.tensors.size(), trace.tensors.size());
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        EXPECT_EQ(back.records[i].tensor, trace.records[i].tensor);
        EXPECT_EQ(back.records[i].accessIndex, trace.records[i].accessIndex);
        EXPECT_EQ(back.records[i].time, trace.records[i].time);
        EXPECT_EQ(back.records[i].isOutput, trace.records[i].isOutput);
        EXPECT_EQ(back.records[i].op, trace.records[i].op);
    }
    for (std::size_t i = 0; i < trace.tensors.size(); ++i) {
        EXPECT_EQ(back.tensors[i].id, trace.tensors[i].id);
        EXPECT_EQ(back.tensors[i].bytes, trace.tensors[i].bytes);
        EXPECT_EQ(back.tensors[i].kind, trace.tensors[i].kind);
    }
}

TEST(TraceIo, LoadedTrackerMatchesOriginal)
{
    TensorTrace trace = capturedResNetTrace(32);
    AccessTracker tracker = trace.toTracker();
    EXPECT_EQ(tracker.size(), trace.records.size());
    // Per-op durations derived identically.
    for (const auto &rec : trace.records) {
        if (rec.op != kInvalidOp) {
            EXPECT_TRUE(tracker.hasOpDuration(rec.op) ||
                        tracker.opDuration(rec.op) == 0);
        }
    }
}

TEST(TraceIo, RejectsGarbage)
{
    std::stringstream ss("not a trace\n1,2,3\n");
    EXPECT_THROW(readTrace(ss), FatalError);
}

TEST(TraceIo, RejectsTruncatedTable)
{
    std::stringstream ss("# capuchin-trace v1\ntensors 5\n1,a,10,feature\n");
    EXPECT_THROW(readTrace(ss), FatalError);
}

TEST(TraceIo, RejectsNonNumericCell)
{
    const std::string head = "# capuchin-trace v1\ntensors 1\n";
    EXPECT_NE(traceError(head + "abc,t,10,feature\nrecords 0\n")
                  .find("tensor row 0 'abc,t,10,feature'"),
              std::string::npos);
    EXPECT_NE(traceError(head + "0,t,-10,feature\nrecords 0\n")
                  .find("tensor row 0"),
              std::string::npos);
    // Every record cell, including an is_output other than 0 or 1 and an
    // op below -1.
    for (const char *row : {"x,1,10,1,-1", "0,-1,10,1,-1", "0,1,1e3,1,-1",
                            "0,1,10,2,-1", "0,1,10,yes,-1", "0,1,10,1,-2",
                            "0,1,10,1,"}) {
        SCOPED_TRACE(row);
        std::string text =
            head + "0,t,10,feature\nrecords 1\n" + row + "\n";
        EXPECT_NE(traceError(text).find(std::string("record row 0 '") + row),
                  std::string::npos);
    }
    EXPECT_EQ(traceError(head + "0,t,10,feature\nrecords 1\n0,1,10,1,-1\n"),
              "");
}

TEST(TraceIo, RejectsHostileId)
{
    // One tensor row and two record rows justify tensor ids below 3 and op
    // ids below 2; anything larger would size reconstructGraph's tables.
    const std::string head = "# capuchin-trace v1\ntensors 1\n";
    auto trace = [&](const std::string &tensor, const std::string &record) {
        return head + tensor + "\nrecords 2\n0,1,10,1,0\n" + record + "\n";
    };
    EXPECT_EQ(traceError(trace("2,t,10,feature", "2,2,20,0,1")), "");
    EXPECT_NE(traceError(trace("4000000000,t,10,feature", "0,2,20,0,1"))
                  .find("tensor row 0 '4000000000,t,10,feature'"),
              std::string::npos);
    EXPECT_NE(traceError(trace("3,t,10,feature", "0,2,20,0,1"))
                  .find("tensor row 0"),
              std::string::npos);
    EXPECT_NE(traceError(trace("0,t,10,feature", "3,2,20,0,1"))
                  .find("record row 1 '3,2,20,0,1'"),
              std::string::npos);
    EXPECT_NE(traceError(trace("0,t,10,feature", "0,2,20,0,2"))
                  .find("record row 1 '0,2,20,0,2'"),
              std::string::npos);
}

TEST(TraceIo, MissingFileIsFatal)
{
    EXPECT_THROW(loadTraceFile("/nonexistent/trace.csv"), FatalError);
}

// --- swap compression ---

TEST(SwapCompression, ReducesSwapStalls)
{
    auto run = [](double ratio) {
        ExecConfig cfg;
        cfg.swapCompressionRatio = ratio;
        CapuchinOptions opts;
        opts.enableRecompute = false; // force everything through PCIe
        Session s(buildResNet(350, 50), cfg, makeCapuchinPolicy(opts));
        auto r = s.run(10);
        EXPECT_FALSE(r.oom);
        return r.steadyIterationTicks(5);
    };
    Tick plain = run(1.0);
    Tick compressed = run(2.0);
    EXPECT_LT(compressed, plain);
}

TEST(SwapCompression, ReducesHostFootprint)
{
    // Swap-only plans so the eviction set is size-driven and stable
    // across ratios; the host staging copies then shrink by the ratio.
    auto host_peak = [](double ratio) {
        ExecConfig cfg;
        cfg.swapCompressionRatio = ratio;
        CapuchinOptions opts;
        opts.enableRecompute = false;
        Session s(buildResNet(300, 50), cfg, makeCapuchinPolicy(opts));
        auto r = s.run(2);
        EXPECT_FALSE(r.oom);
        return s.executor().memory().host().peakBytesInUse();
    };
    std::uint64_t plain = host_peak(1.0);
    std::uint64_t compressed = host_peak(4.0);
    EXPECT_LT(compressed, plain * 2 / 3);
}

TEST(SwapCompression, DisabledIsIdentity)
{
    ExecConfig a;
    ExecConfig b;
    b.swapCompressionRatio = 1.0;
    Session sa(buildResNet(300, 50), a, makeCapuchinPolicy());
    Session sb(buildResNet(300, 50), b, makeCapuchinPolicy());
    EXPECT_EQ(sa.run(3).steadyIterationTicks(1),
              sb.run(3).steadyIterationTicks(1));
}
