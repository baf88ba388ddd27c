/** @file Unit tests for the graph substrate: Graph, topo order, autograd. */

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/autograd.hh"
#include "graph/graph.hh"
#include "support/logging.hh"
#include "support/units.hh"

using namespace capu;

namespace
{

/** images -> op1 -> t1 -> op2 -> t2 chain with weights on both ops. */
struct ChainFixture
{
    Graph g{"chain"};
    TensorId images, w1, t1, w2, t2;
    OpId op1, op2;

    ChainFixture()
    {
        images = g.addTensor("images", 1_MiB, TensorKind::FeatureMap);
        Operation src;
        src.name = "source";
        src.category = OpCategory::Source;
        src.outputs = {images};
        src.recomputable = false;
        g.addOp(src);

        w1 = g.addTensor("w1", 4_KiB, TensorKind::Weight);
        t1 = g.addTensor("t1", 1_MiB, TensorKind::FeatureMap);
        Operation o1;
        o1.name = "op1";
        o1.category = OpCategory::Conv;
        o1.inputs = {images, w1};
        o1.outputs = {t1};
        o1.flops = 1e6;
        o1.memBytes = 2e6;
        o1.gradInputs = {images};
        o1.gradParams = {w1};
        o1.savedForBackward = {images, w1};
        op1 = g.addOp(o1);

        w2 = g.addTensor("w2", 4_KiB, TensorKind::Weight);
        t2 = g.addTensor("t2", 1_MiB, TensorKind::FeatureMap);
        Operation o2;
        o2.name = "op2";
        o2.category = OpCategory::Loss;
        o2.inputs = {t1, w2};
        o2.outputs = {t2};
        o2.flops = 1e6;
        o2.memBytes = 2e6;
        o2.gradInputs = {t1};
        o2.gradParams = {w2};
        o2.savedForBackward = {t1, w2};
        op2 = g.addOp(o2);
    }
};

} // namespace

TEST(Graph, ProducerLinks)
{
    ChainFixture f;
    EXPECT_EQ(f.g.tensor(f.t1).producer, f.op1);
    EXPECT_EQ(f.g.tensor(f.w1).producer, kInvalidOp);
}

TEST(Graph, ConsumersTracked)
{
    ChainFixture f;
    ASSERT_EQ(f.g.consumers(f.t1).size(), 1u);
    EXPECT_EQ(f.g.consumers(f.t1)[0], f.op2);
    EXPECT_TRUE(f.g.consumers(f.t2).empty());
}

TEST(Graph, DoubleProducerPanics)
{
    ChainFixture f;
    Operation bad;
    bad.name = "bad";
    bad.outputs = {f.t1};
    EXPECT_THROW(f.g.addOp(bad), PanicError);
}

TEST(Graph, UnknownInputPanics)
{
    Graph g("x");
    Operation bad;
    bad.name = "bad";
    bad.inputs = {42};
    EXPECT_THROW(g.addOp(bad), PanicError);
}

TEST(Graph, TopoOrderRespectsDeps)
{
    ChainFixture f;
    auto order = f.g.topoOrder();
    auto pos = [&](OpId id) {
        return std::find(order.begin(), order.end(), id) - order.begin();
    };
    EXPECT_LT(pos(f.op1), pos(f.op2));
    EXPECT_EQ(order.size(), f.g.numOps());
}

TEST(Graph, ValidatePassesOnChain)
{
    ChainFixture f;
    EXPECT_NO_THROW(f.g.validate());
}

TEST(Graph, ValidateRejectsBadSavedTensor)
{
    ChainFixture f;
    f.g.mutableOp(f.op2).savedForBackward.push_back(f.images);
    EXPECT_THROW(f.g.validate(), PanicError);
}

TEST(Graph, StatsCountKinds)
{
    ChainFixture f;
    auto s = f.g.stats();
    EXPECT_EQ(s.weightBytes, 8_KiB);
    EXPECT_EQ(s.featureMapBytes, 3_MiB);
    EXPECT_EQ(s.opCount, 3u);
    EXPECT_EQ(s.forwardOps, 3u);
}

TEST(Graph, BytesOfKind)
{
    ChainFixture f;
    EXPECT_EQ(f.g.bytesOfKind(TensorKind::Weight), 8_KiB);
    EXPECT_EQ(f.g.bytesOfKind(TensorKind::Gradient), 0u);
}

// --- Autograd ---

TEST(Autograd, ChainProducesBackwardAndUpdates)
{
    ChainFixture f;
    auto result = buildBackward(f.g, f.t2);
    EXPECT_EQ(result.updateOps, 2u); // w1 and w2
    EXPECT_GT(result.backwardOps, 2u);
    EXPECT_NO_THROW(f.g.validate());
}

TEST(Autograd, GradTensorsMatchSizes)
{
    ChainFixture f;
    buildBackward(f.g, f.t2);
    for (const auto &t : f.g.tensors()) {
        if (t.kind != TensorKind::Gradient)
            continue;
        EXPECT_GT(t.bytes, 0u);
        EXPECT_EQ(t.name.rfind("d_", 0), 0u) << t.name;
    }
}

TEST(Autograd, BackwardConsumesSavedTensors)
{
    ChainFixture f;
    buildBackward(f.g, f.t2);
    // t1 (saved by op2) must be read by at least one backward op —
    // the forward-to-backward reuse that creates the paper's problem.
    bool backward_use = false;
    for (OpId c : f.g.consumers(f.t1)) {
        if (f.g.op(c).phase == Phase::Backward)
            backward_use = true;
    }
    EXPECT_TRUE(backward_use);
}

TEST(Autograd, NoGradForSourceData)
{
    ChainFixture f;
    buildBackward(f.g, f.t2);
    // d_images must not exist: frameworks don't differentiate w.r.t. data.
    for (const auto &t : f.g.tensors())
        EXPECT_NE(t.name, "d_images");
}

TEST(Autograd, BranchInsertsGradAccumulation)
{
    // images -> opA -> t; t feeds opB and opC whose outputs are summed:
    // d_t has two contributions, requiring an add_grad op.
    Graph g("branch");
    TensorId images = g.addTensor("images", 1_MiB, TensorKind::FeatureMap);
    Operation src;
    src.name = "source";
    src.category = OpCategory::Source;
    src.outputs = {images};
    src.recomputable = false;
    g.addOp(src);

    auto mk = [&](const std::string &name, TensorId in, OpCategory cat) {
        TensorId out = g.addTensor(name + ":out", 1_MiB,
                                   TensorKind::FeatureMap);
        Operation op;
        op.name = name;
        op.category = cat;
        op.inputs = {in};
        op.outputs = {out};
        op.flops = 1e6;
        op.memBytes = 2e6;
        op.gradInputs = {in};
        op.savedForBackward = {in};
        g.addOp(op);
        return out;
    };
    TensorId t = mk("opA", images, OpCategory::Elementwise);
    TensorId b1 = mk("opB", t, OpCategory::Elementwise);
    TensorId b2 = mk("opC", t, OpCategory::Elementwise);

    TensorId sum = g.addTensor("sum", 1_MiB, TensorKind::FeatureMap);
    Operation add;
    add.name = "add";
    add.category = OpCategory::Loss;
    add.inputs = {b1, b2};
    add.outputs = {sum};
    add.flops = 1;
    add.memBytes = 1;
    add.gradInputs = {b1, b2};
    g.addOp(add);

    buildBackward(g, sum);
    g.validate();

    bool has_accumulation = false;
    for (const auto &op : g.ops()) {
        if (op.name.rfind("add_grad:", 0) == 0)
            has_accumulation = true;
    }
    EXPECT_TRUE(has_accumulation);
}

TEST(Autograd, UnreachedBranchGetsNoBackward)
{
    // A forward op whose output never reaches the loss must not produce
    // backward work (pruning matches real frameworks).
    ChainFixture f;
    TensorId dead = f.g.addTensor("dead", 1_MiB, TensorKind::FeatureMap);
    Operation side;
    side.name = "side";
    side.category = OpCategory::Elementwise;
    side.inputs = {f.t1};
    side.outputs = {dead};
    side.flops = 1;
    side.memBytes = 1;
    side.gradInputs = {f.t1};
    f.g.addOp(side);

    buildBackward(f.g, f.t2);
    for (const auto &op : f.g.ops())
        EXPECT_EQ(op.name.find("side:bwd"), std::string::npos) << op.name;
}

TEST(Autograd, LossWithoutProducerIsFatal)
{
    Graph g("x");
    TensorId orphan = g.addTensor("orphan", 1_KiB, TensorKind::FeatureMap);
    EXPECT_THROW(buildBackward(g, orphan), FatalError);
}

TEST(Autograd, UpdateOpsTouchWeightsLast)
{
    ChainFixture f;
    buildBackward(f.g, f.t2);
    auto order = f.g.topoOrder();
    std::size_t first_update = order.size(), last_nonupdate = 0;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (f.g.op(order[i]).phase == Phase::Update)
            first_update = std::min(first_update, i);
        else
            last_nonupdate = i;
    }
    EXPECT_GT(first_update, 0u);
    EXPECT_LT(last_nonupdate, order.size());
}
