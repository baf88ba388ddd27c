/**
 * @file
 * Integration tests: every model x every policy at an oversubscribed batch
 * on the simulated P100, with fingerprint verification active. These are
 * the end-to-end guarantees the benchmark results rest on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/noop_policy.hh"
#include "policy/vdnn_policy.hh"

using namespace capu;

namespace
{

enum class Pol
{
    NoOp,
    Vdnn,
    OpenAiM,
    OpenAiS,
    Capuchin,
};

const char *
polName(Pol p)
{
    switch (p) {
      case Pol::NoOp: return "TFori";
      case Pol::Vdnn: return "vDNN";
      case Pol::OpenAiM: return "OpenAIM";
      case Pol::OpenAiS: return "OpenAIS";
      case Pol::Capuchin: return "Capuchin";
    }
    return "?";
}

std::unique_ptr<MemoryPolicy>
makePolicy(Pol p)
{
    switch (p) {
      case Pol::NoOp: return makeNoOpPolicy();
      case Pol::Vdnn: return makeVdnnPolicy();
      case Pol::OpenAiM:
        return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Memory);
      case Pol::OpenAiS:
        return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Speed);
      case Pol::Capuchin: return makeCapuchinPolicy();
    }
    return nullptr;
}

/** A batch ~25% above each model's unmanaged maximum (must OOM on TF-ori,
 *  must train under every memory-managing policy). */
std::int64_t
oversubscribedBatch(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Vgg16: return 260;
      case ModelKind::ResNet50: return 240;
      case ModelKind::ResNet152: return 110;
      case ModelKind::InceptionV3: return 210;
      case ModelKind::InceptionV4: return 120;
      case ModelKind::DenseNet121: return 200;
      case ModelKind::BertBase: return 110;
    }
    return 0;
}

using Combo = std::tuple<ModelKind, Pol>;

} // namespace

class PolicyModelTest : public ::testing::TestWithParam<Combo>
{
};

TEST_P(PolicyModelTest, TrainsOversubscribedWithIntegrity)
{
    auto [kind, pol] = GetParam();
    std::int64_t batch = oversubscribedBatch(kind);
    ExecConfig cfg;

    Graph g = buildModel(kind, batch);
    Session s(std::move(g), cfg, makePolicy(pol));
    auto r = s.run(4);

    if (pol == Pol::NoOp) {
        EXPECT_TRUE(r.oom) << "batch should exceed the unmanaged maximum";
        return;
    }
    ASSERT_FALSE(r.oom) << r.oomMessage;
    ASSERT_EQ(r.iterations.size(), 4u);

    const auto &it = r.iterations.back();
    // Some memory mechanism was exercised.
    EXPECT_GT(it.swapOutBytes + it.droppedBytes + it.recomputeBusy, 0u);
    // Peak stayed within the card.
    EXPECT_LE(it.peakGpuBytes, cfg.device.memCapacity);
    // Training made progress at a sane rate.
    EXPECT_GT(it.throughput(batch), 1.0);

    // The pool must be clean after training: only the weights remain
    // (bytesInUse includes the allocator's size-class rounding, so bound
    // it rather than demanding equality).
    s.executor().memory().drainAll();
    std::uint64_t weights = s.graph().bytesOfKind(TensorKind::Weight);
    EXPECT_GE(s.executor().memory().gpu().bytesInUse(), weights);
    EXPECT_LE(s.executor().memory().gpu().bytesInUse(),
              weights + weights / 8 + 1_MiB);
    for (TensorId t = 0; t < s.graph().numTensors(); ++t) {
        if (s.graph().tensor(t).kind == TensorKind::Weight)
            continue;
        EXPECT_FALSE(s.executor().tensorState(t).gpuHandle.has_value())
            << s.graph().tensor(t).name;
    }
    EXPECT_EQ(s.executor().memory().host().bytesInUse(), 0u);
    s.executor().memory().gpu().checkInvariants();
}

namespace
{

std::vector<Combo>
allCombos()
{
    std::vector<Combo> combos;
    for (ModelKind kind : graphModeModels()) {
        for (Pol pol : {Pol::NoOp, Pol::Vdnn, Pol::OpenAiM, Pol::OpenAiS,
                        Pol::Capuchin}) {
            if (kind == ModelKind::BertBase && pol == Pol::Vdnn)
                continue; // vDNN is CNN-only (paper: "not available")
            combos.emplace_back(kind, pol);
        }
    }
    // Eager-mode models run under the graph-agnostic policies only.
    combos.emplace_back(ModelKind::DenseNet121, Pol::NoOp);
    combos.emplace_back(ModelKind::DenseNet121, Pol::Capuchin);
    return combos;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllPolicies, PolicyModelTest, ::testing::ValuesIn(allCombos()),
    [](const auto &info) {
        std::string n = std::string(modelName(std::get<0>(info.param))) +
                        "_" + polName(std::get<1>(info.param));
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

// --- eager-mode integration ---

class EagerIntegrationTest : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(EagerIntegrationTest, CapuchinTrainsOversubscribedEagerly)
{
    ModelKind kind = GetParam();
    std::int64_t batch = oversubscribedBatch(kind);
    ExecConfig cfg;
    cfg.eagerMode = true;

    // TF-ori must fail at this batch eagerly (eager needs more memory).
    {
        Session s(buildModel(kind, batch), cfg, makeNoOpPolicy());
        EXPECT_TRUE(s.run(2).oom);
    }
    // Capuchin must train it.
    {
        Session s(buildModel(kind, batch), cfg, makeCapuchinPolicy());
        auto r = s.run(4);
        EXPECT_FALSE(r.oom) << r.oomMessage;
    }
}

INSTANTIATE_TEST_SUITE_P(EagerModels, EagerIntegrationTest,
                         ::testing::ValuesIn(eagerModeModels()),
                         [](const auto &info) {
                             std::string n = modelName(info.param);
                             for (auto &c : n)
                                 if (!isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             return n;
                         });

// --- cross-iteration stability ---

TEST(Integration, CapuchinStableOverManyIterations)
{
    ExecConfig cfg;
    Session s(buildResNet(400, 50), cfg, makeCapuchinPolicy());
    auto r = s.run(30);
    ASSERT_FALSE(r.oom);
    // After convergence, iteration times are flat (within 2%).
    Tick a = r.iterations[27].duration();
    Tick b = r.iterations[29].duration();
    double drift =
        std::abs(static_cast<double>(a) - static_cast<double>(b)) /
        static_cast<double>(a);
    EXPECT_LT(drift, 0.02);
}

TEST(Integration, V100FitsMoreThanP100)
{
    auto builder = [](std::int64_t b) { return buildResNet(b, 50); };
    ExecConfig p100;
    ExecConfig v100;
    v100.device = GpuDeviceSpec::v100();
    auto mp = findMaxBatch(builder, [] { return makeNoOpPolicy(); }, p100,
                           2, 1, 2048);
    auto mv = findMaxBatch(builder, [] { return makeNoOpPolicy(); }, v100,
                           2, 1, 2048);
    EXPECT_GT(mv, static_cast<std::int64_t>(mp * 1.8));
}
