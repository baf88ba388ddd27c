#include "models/workload.hh"

#include <algorithm>
#include <utility>

#include "models/builder.hh"
#include "models/zoo.hh"
#include "support/logging.hh"
#include "support/strfmt.hh"

namespace capu
{

namespace
{

/** Iterations per schedule cycle (each variant recurs ~len/3 times). */
constexpr std::size_t kScheduleLen = 24;

/** xorshift64*: tiny seeded PRNG so schedules never depend on libc rand. */
struct Xorshift64
{
    std::uint64_t state;

    explicit Xorshift64(std::uint64_t seed)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {
    }

    std::uint64_t next()
    {
        std::uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return n ? next() % n : 0; }
};

/**
 * Round-robin fill over `variants` shuffled with Fisher-Yates: every
 * variant recurs with equal frequency (so each shape class reaches a
 * replayable steady state) but in a seed-dependent interleaving.
 */
std::vector<std::size_t>
shuffledRoundRobin(std::size_t variants, std::uint64_t seed)
{
    std::vector<std::size_t> schedule(kScheduleLen);
    for (std::size_t i = 0; i < schedule.size(); ++i)
        schedule[i] = i % variants;
    Xorshift64 rng(seed);
    for (std::size_t i = schedule.size() - 1; i > 0; --i)
        std::swap(schedule[i], schedule[rng.below(i + 1)]);
    return schedule;
}

/** One tower of the branchy model; `which` selects the routed expert. */
Graph
buildBranchyVariant(std::int64_t batch, int which)
{
    const char *names[] = {"BranchyShallow", "BranchyWide", "BranchyDeep"};
    ModelBuilder b(names[which], batch);
    TensorId x = b.input(3, 64, 64);
    x = b.convBnRelu(x, 64, 3, 2); // shared-architecture stem, 32x32
    switch (which) {
      case 0: // shallow expert: one cheap tower
        x = b.convBnRelu(x, 128, 3, 2);
        break;
      case 1: { // wide expert: two parallel towers, concatenated
        TensorId a = b.convBnRelu(x, 96, 3, 2);
        TensorId c = b.convBnRelu(x, 96, 5, 2);
        x = b.concat({a, c});
        break;
      }
      default: // deep expert: three stacked convs
        x = b.convBnRelu(x, 128, 3, 1);
        x = b.convBnRelu(x, 128, 3, 1);
        x = b.convBnRelu(x, 192, 3, 2);
        break;
    }
    x = b.globalAvgPool(x);
    x = b.fc(x, 1000);
    return b.finalize(b.softmaxLoss(x));
}

} // namespace

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Static: return "static";
      case WorkloadKind::Varlen: return "varlen";
      case WorkloadKind::BatchRamp: return "batch-ramp";
      case WorkloadKind::Branchy: return "branchy";
    }
    return "?";
}

bool
workloadFromString(const std::string &name, WorkloadKind &out)
{
    if (name == "static") out = WorkloadKind::Static;
    else if (name == "varlen") out = WorkloadKind::Varlen;
    else if (name == "batch-ramp") out = WorkloadKind::BatchRamp;
    else if (name == "branchy") out = WorkloadKind::Branchy;
    else return false;
    return true;
}

std::vector<WorkloadKind>
dynamicWorkloads()
{
    return {WorkloadKind::Varlen, WorkloadKind::BatchRamp,
            WorkloadKind::Branchy};
}

Graph
buildModelByName(const std::string &name, std::int64_t batch)
{
    if (name == "vgg16") return buildVgg16(batch);
    if (name == "resnet50") return buildResNet(batch, 50);
    if (name == "resnet152") return buildResNet(batch, 152);
    if (name == "inceptionv3") return buildInceptionV3(batch);
    if (name == "inceptionv4") return buildInceptionV4(batch);
    if (name == "densenet") return buildDenseNet121(batch);
    if (name == "bert") return buildBert(batch);
    if (name == "lstm") return buildLstm(batch);
    fatal("unknown model '{}' (vgg16, resnet50, resnet152, inceptionv3, "
          "inceptionv4, densenet, bert, lstm)",
          name);
}

Graph
mergeVariantGraphs(std::string name, std::vector<Graph> parts,
                   const std::vector<std::string> &tags)
{
    if (parts.empty() || parts.size() != tags.size())
        panic("mergeVariantGraphs: {} parts vs {} tags", parts.size(),
              tags.size());
    Graph out(std::move(name));
    for (std::size_t v = 0; v < parts.size(); ++v) {
        const Graph &g = parts[v];
        const std::string &tag = tags[v];
        std::vector<TensorId> tmap(g.numTensors(), kInvalidTensor);
        for (const TensorDesc &t : g.tensors())
            tmap[t.id] = out.addTensor(tag + "/" + t.name, t.bytes, t.kind,
                                       t.shape);
        auto remap = [&](std::vector<TensorId> &ids) {
            for (TensorId &t : ids)
                t = tmap[t];
        };
        std::vector<OpId> vops;
        vops.reserve(g.numOps());
        // Op ids are construction-ordered (topological within a builder
        // graph); copying in id order keeps that property in the union.
        for (const Operation &src : g.ops()) {
            Operation op = src;
            op.name = tag + "/" + op.name;
            remap(op.inputs);
            remap(op.outputs);
            remap(op.gradInputs);
            remap(op.gradParams);
            remap(op.savedForBackward);
            vops.push_back(out.addOp(std::move(op)));
        }
        out.addVariant(tag, std::move(vops));
    }
    out.validate();
    return out;
}

DynamicWorkload
buildVarlenBert(std::int64_t batch, std::uint64_t seed)
{
    BertConfig base;
    std::vector<Graph> parts;
    std::vector<std::string> tags;
    for (std::int64_t len :
         {base.seqLen / 2, base.seqLen * 3 / 4, base.seqLen}) {
        BertConfig cfg = base;
        cfg.seqLen = len;
        parts.push_back(buildBert(batch, cfg));
        tags.push_back(fmt("seq{}", len));
    }
    Graph g = mergeVariantGraphs(fmt("BERT-varlen(b{})", batch),
                                 std::move(parts), tags);
    return {std::move(g), shuffledRoundRobin(tags.size(), seed)};
}

DynamicWorkload
buildVarlenLstm(std::int64_t batch, std::uint64_t seed)
{
    LstmConfig base;
    std::vector<Graph> parts;
    std::vector<std::string> tags;
    for (std::int64_t t :
         {base.timesteps / 2, base.timesteps * 3 / 4, base.timesteps}) {
        LstmConfig cfg = base;
        cfg.timesteps = t;
        parts.push_back(buildLstm(batch, cfg));
        tags.push_back(fmt("t{}", t));
    }
    Graph g = mergeVariantGraphs(fmt("LSTM-varlen(b{})", batch),
                                 std::move(parts), tags);
    return {std::move(g), shuffledRoundRobin(tags.size(), seed)};
}

DynamicWorkload
buildBatchRamp(const std::string &model, std::int64_t batch,
               std::uint64_t seed)
{
    std::vector<std::int64_t> batches = {std::max<std::int64_t>(1, batch / 2),
                                         std::max<std::int64_t>(1,
                                                                batch * 3 / 4),
                                         batch};
    std::vector<Graph> parts;
    std::vector<std::string> tags;
    for (std::int64_t b : batches) {
        parts.push_back(buildModelByName(model, b));
        tags.push_back(fmt("b{}", b));
    }
    Graph g = mergeVariantGraphs(fmt("{}-ramp(b{})", model, batch),
                                 std::move(parts), tags);
    // Warmup ramp, not a shuffle: thirds with seeded boundary jitter. The
    // cyclic application means the batch drops back after each cycle — a
    // recurring ramp, so every class stays warm for replay.
    Xorshift64 rng(seed);
    std::size_t third = kScheduleLen / 3;
    std::size_t cut1 = third + rng.below(3);
    std::size_t cut2 = 2 * third + rng.below(3);
    std::vector<std::size_t> schedule(kScheduleLen);
    for (std::size_t i = 0; i < schedule.size(); ++i)
        schedule[i] = i < cut1 ? 0 : (i < cut2 ? 1 : 2);
    return {std::move(g), std::move(schedule)};
}

DynamicWorkload
buildBranchy(std::int64_t batch, std::uint64_t seed)
{
    std::vector<Graph> parts;
    std::vector<std::string> tags = {"shallow", "wide", "deep"};
    for (int i = 0; i < 3; ++i)
        parts.push_back(buildBranchyVariant(batch, i));
    Graph g = mergeVariantGraphs(fmt("Branchy(b{})", batch),
                                 std::move(parts), tags);
    return {std::move(g), shuffledRoundRobin(tags.size(), seed)};
}

DynamicWorkload
buildWorkload(WorkloadKind kind, const std::string &model, std::int64_t batch,
              std::uint64_t seed)
{
    switch (kind) {
      case WorkloadKind::Static:
        return {buildModelByName(model, batch), {}};
      case WorkloadKind::Varlen:
        if (model == "bert")
            return buildVarlenBert(batch, seed);
        if (model == "lstm")
            return buildVarlenLstm(batch, seed);
        fatal("--workload varlen requires --model bert or lstm (got '{}')",
              model);
      case WorkloadKind::BatchRamp:
        return buildBatchRamp(model, batch, seed);
      case WorkloadKind::Branchy:
        return buildBranchy(batch, seed);
    }
    fatal("unknown workload kind");
}

} // namespace capu
