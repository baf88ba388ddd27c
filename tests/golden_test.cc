/**
 * @file
 * Golden simulated output for four zoo cells: per-iteration ticks,
 * swap-out bytes, recompute ops and OOM evictions, plus the final plan
 * digest, pinned as absolute values.
 *
 * Every other bit-identity test compares two runs of one build, so a
 * change that shifts every tick in both runs alike passes them. These
 * values were recorded once and must not move unless simulated behaviour
 * is changed on purpose; such a change updates the table in the same
 * commit and says why. On a mismatch the failure message prints the
 * observed table, ready to paste.
 *
 * The cells cover the executor and planner paths a host-speed rewrite is
 * most likely to disturb:
 *  - ResNet-152@400 under Capuchin: the only zoo cell whose guided
 *    iterations hit passive eviction, so the contiguous-victim search and
 *    mid-replay recompute releases run every iteration;
 *  - DenseNet@200 under Capuchin: long recompute chains;
 *  - BERT@110 under Capuchin: busy PCIe swap lanes in the planner;
 *  - OpenAI-M on ResNet-50@240: a checkpointing baseline that replays
 *    lineage every iteration (its "plan" is the static drop set).
 *
 * A second table pins the exported bytes of three fully traced cells: the
 * FNV-1a digest and length of the Chrome trace, the metrics CSV and the
 * profile JSON. A change to how events are recorded, named, sorted or
 * formatted must leave all three byte-identical. The cells are the CI
 * artifact runs: ResNet-50@256 under Capuchin, the chaos cell (PCIe storm
 * with failed swap attempts, so `!fail` and `recovery.*` labels reach the
 * exporter) and a 40-iteration VGG16@230 run whose replayed iterations
 * re-emit their `iter:N` / `iteration:N` markers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <streambuf>

#include "core/capuchin_policy.hh"
#include "core/plan_io.hh"
#include "exec/session.hh"
#include "faults/fault_spec.hh"
#include "models/zoo.hh"
#include "obs/chrome_trace.hh"
#include "obs/event_adapter.hh"
#include "policy/checkpointing_policy.hh"
#include "prof/report.hh"
#include "support/rng.hh"

using namespace capu;

namespace
{

constexpr int kIterations = 4; ///< measured iteration 0 + 3 guided

struct GoldenIter
{
    Tick ticks;
    std::uint64_t swapOutBytes;
    int recomputeOps;
    int oomEvictions;

    bool
    operator==(const GoldenIter &o) const
    {
        return ticks == o.ticks && swapOutBytes == o.swapOutBytes &&
               recomputeOps == o.recomputeOps &&
               oomEvictions == o.oomEvictions;
    }
};

struct Golden
{
    std::vector<GoldenIter> iters;
    std::uint64_t planDigest;
};

std::string
describe(const Golden &g)
{
    std::ostringstream os;
    os << "{{\n";
    for (const GoldenIter &it : g.iters) {
        os << "     {" << it.ticks << "ull, " << it.swapOutBytes << "ull, "
           << it.recomputeOps << ", " << it.oomEvictions << "},\n";
    }
    os << " }, 0x" << std::hex << g.planDigest << "ull}";
    return os.str();
}

/** Digest of a checkpointing policy's static drop set. */
std::uint64_t
dropSetDigest(const CheckpointingPolicy &policy)
{
    std::uint64_t h = 0;
    for (TensorId id : policy.dropSet())
        h = hashCombine(h, static_cast<std::uint64_t>(id));
    return h;
}

Golden
observe(ModelKind model, std::int64_t batch,
        std::unique_ptr<MemoryPolicy> policy)
{
    ExecConfig cfg;
    cfg.replay.enabled = false;
    MemoryPolicy *raw = policy.get();
    Session session(buildModel(model, batch), cfg, std::move(policy));
    SessionResult r = session.run(kIterations);
    EXPECT_FALSE(r.oom) << r.oomMessage;

    Golden g;
    for (const IterationStats &it : r.iterations) {
        g.iters.push_back(GoldenIter{it.duration(), it.swapOutBytes,
                                     it.recomputeOps, it.oomEvictions});
    }
    if (auto *capu = dynamic_cast<CapuchinPolicy *>(raw))
        g.planDigest = planDigest(capu->plan());
    else
        g.planDigest =
            dropSetDigest(dynamic_cast<const CheckpointingPolicy &>(*raw));
    return g;
}

void
expectGolden(const Golden &observed, const Golden &expected)
{
    EXPECT_EQ(observed.iters.size(), expected.iters.size());
    EXPECT_TRUE(observed.iters == expected.iters &&
                observed.planDigest == expected.planDigest)
        << "observed " << describe(observed) << "\nexpected "
        << describe(expected);
}

} // namespace

TEST(Golden, ResNet152At400Capuchin)
{
    expectGolden(observe(ModelKind::ResNet152, 400, makeCapuchinPolicy()),
                 {{
                      {19925678046ull, 75327217664ull, 0, 388},
                      {11636330224ull, 18931667968ull, 2061, 22},
                      {11636330224ull, 18931667968ull, 2061, 22},
                      {11645691186ull, 18931667968ull, 2061, 22},
                  },
                  0xa9d1206ca7f7ccd3ull});
}

TEST(Golden, DenseNetAt200Capuchin)
{
    expectGolden(observe(ModelKind::DenseNet121, 200, makeCapuchinPolicy()),
                 {{
                      {2631974037ull, 15634841600ull, 0, 68},
                      {2368178302ull, 9740992512ull, 0, 213},
                      {1039517796ull, 2953641984ull, 217, 18},
                      {1028650388ull, 2985472000ull, 218, 4},
                  },
                  0x98ffe5f221cfdef9ull});
}

TEST(Golden, BertAt110Capuchin)
{
    expectGolden(observe(ModelKind::BertBase, 110, makeCapuchinPolicy()),
                 {{
                      {3357923289ull, 16009297920ull, 0, 163},
                      {2667800471ull, 4317772800ull, 0, 39},
                      {2201612619ull, 2208645120ull, 10, 0},
                      {2201612619ull, 2208645120ull, 10, 0},
                  },
                  0x56fc554e9de7019ull});
}

TEST(Golden, ResNet50At240OpenAiM)
{
    expectGolden(observe(ModelKind::ResNet50, 240,
                         makeCheckpointingPolicy(
                             CheckpointingPolicy::Mode::Memory)),
                 {{
                      {1475177226ull, 0ull, 154, 0},
                      {1475177226ull, 0ull, 154, 0},
                      {1475177226ull, 0ull, 154, 0},
                      {1475177226ull, 0ull, 154, 0},
                  },
                  0x1d858fff15491b70ull});
}

// --- Exported bytes ---

namespace
{

/** FNV-1a digest and length of everything written through it. */
class DigestBuf : public std::streambuf
{
  public:
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t bytes = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            mix(traits_type::to_char_type(c));
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        for (std::streamsize i = 0; i < n; ++i)
            mix(s[i]);
        return n;
    }

  private:
    void
    mix(char c)
    {
        digest ^= static_cast<unsigned char>(c);
        digest *= 0x100000001b3ull;
        ++bytes;
    }
};

struct ExportDigest
{
    std::uint64_t digest;
    std::uint64_t bytes;

    bool
    operator==(const ExportDigest &o) const
    {
        return digest == o.digest && bytes == o.bytes;
    }
};

struct GoldenExport
{
    ExportDigest trace;
    ExportDigest metrics;
    ExportDigest profile;

    bool
    operator==(const GoldenExport &o) const
    {
        return trace == o.trace && metrics == o.metrics &&
               profile == o.profile;
    }
};

std::string
describe(const GoldenExport &g)
{
    std::ostringstream os;
    os << std::hex;
    for (const ExportDigest *d : {&g.trace, &g.metrics, &g.profile}) {
        os << "{0x" << d->digest << "ull, " << std::dec << d->bytes
           << "ull}," << std::hex;
    }
    return os.str();
}

template <typename Write>
ExportDigest
digestOf(Write &&write)
{
    DigestBuf buf;
    std::ostream os(&buf);
    write(os);
    os.flush();
    return {buf.digest, buf.bytes};
}

/** What an exported run must reproduce besides its bytes. */
struct ExportShape
{
    int replayed = 0;    ///< synthesized iterations
    int failedSwaps = 0; ///< aborted transfer attempts in the timeline
};

/**
 * One fully traced run configured the way capusim configures it (replay
 * on unless a fault plan disarms it; a fault plan arms the plan-drift
 * watchdog), exported three ways.
 */
GoldenExport
exportRun(ModelKind model, std::int64_t batch, int iterations,
          const char *faults, std::uint64_t seed, ExportShape &shape)
{
    ExecConfig cfg;
    cfg.obsLevel = obs::ObsLevel::Full;
    cfg.replay.enabled = true;
    cfg.seed = seed;
    cfg.faults = faults::parseFaultSpec(faults);
    CapuchinOptions opts;
    if (cfg.faults.enabled())
        opts.driftThreshold = 0.35;
    Session session(buildModel(model, batch), cfg, makeCapuchinPolicy(opts));
    SessionResult r = session.run(iterations);
    EXPECT_FALSE(r.oom) << r.oomMessage;
    shape.replayed = r.replay.replayed;
    const obs::Obs &o = session.executor().obs();
    EXPECT_EQ(o.tracer.dropped(), 0u);
    for (const obs::TimelineRecord &rec : obs::extractTimeline(o.tracer))
        shape.failedSwaps += rec.failed ? 1 : 0;

    GoldenExport g;
    g.trace = digestOf(
        [&](std::ostream &os) { obs::writeChromeTrace(os, o.tracer); });
    g.metrics = digestOf(
        [&](std::ostream &os) { obs::writeMetricsCsv(os, o.metrics); });
    prof::Profile profile = prof::buildProfile(o.tracer);
    g.profile = digestOf([&](std::ostream &os) {
        prof::renderProfile(os, profile, prof::ReportFormat::Json);
    });
    return g;
}

void
expectGoldenExport(const GoldenExport &observed,
                   const GoldenExport &expected)
{
    EXPECT_TRUE(observed == expected)
        << "observed " << describe(observed) << "\nexpected "
        << describe(expected);
}

} // namespace

TEST(GoldenExport, ResNet50At256Capuchin)
{
    ExportShape shape;
    GoldenExport g = exportRun(ModelKind::ResNet50, 256, 3, "", 0, shape);
    expectGoldenExport(g, {{0x553247aa28b633b3ull, 1772723ull},
                           {0x5baa3f9cd7a0c139ull, 1560ull},
                           {0x687c0b01d989bf62ull, 247818ull}});
}

TEST(GoldenExport, ResNet50At320PcieStorm)
{
    ExportShape shape;
    GoldenExport g = exportRun(
        ModelKind::ResNet50, 320, 4,
        "pcie:0.5@500-2500;jitter:0.1;swapfail:p=0.05,retries=3", 42, shape);
    EXPECT_EQ(shape.failedSwaps, 21);
    expectGoldenExport(g, {{0xe9633b976249f870ull, 2499438ull},
                           {0x470e1166b85a1d3aull, 2191ull},
                           {0x1db47578e2813649ull, 250025ull}});
}

TEST(GoldenExport, Vgg16At230ReplayedCapuchin)
{
    ExportShape shape;
    GoldenExport g = exportRun(ModelKind::Vgg16, 230, 40, "", 0, shape);
    EXPECT_EQ(shape.replayed, 34);
    expectGoldenExport(g, {{0xb7a13622f971ef5bull, 4128176ull},
                           {0x6457d8c2859fb4f7ull, 8009ull},
                           {0xd391b55e17f727adull, 61439ull}});
}
