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
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "core/plan_io.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
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
