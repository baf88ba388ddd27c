#include "core/plan_io.hh"

#include <bit>
#include <fstream>
#include <istream>
#include <ostream>

#include "support/logging.hh"

namespace capu
{

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Byte-at-a-time FNV-1a accumulator (matches the capureplay digest). */
class Fnv
{
  public:
    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= kFnvPrime;
        }
    }

    void
    u64(std::uint64_t v)
    {
        unsigned char buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = static_cast<unsigned char>(v >> (8 * i));
        bytes(buf, sizeof buf);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = kFnvOffset;
};

/**
 * Fixed-width little-endian field I/O: the on-disk layout is identical on
 * every platform regardless of host endianness or struct padding.
 */
void
put64(std::ostream &os, std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>(v >> (8 * i));
    os.write(buf, sizeof buf);
}

void
put32(std::ostream &os, std::uint32_t v)
{
    char buf[4];
    for (int i = 0; i < 4; ++i)
        buf[i] = static_cast<char>(v >> (8 * i));
    os.write(buf, sizeof buf);
}

void puti64(std::ostream &os, std::int64_t v)
{
    put64(os, static_cast<std::uint64_t>(v));
}

void putf64(std::ostream &os, double v)
{
    put64(os, std::bit_cast<std::uint64_t>(v));
}

bool
get64(std::istream &is, std::uint64_t &v)
{
    char buf[8];
    if (!is.read(buf, sizeof buf))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

bool
get32(std::istream &is, std::uint32_t &v)
{
    char buf[4];
    if (!is.read(buf, sizeof buf))
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[i]))
             << (8 * i);
    return true;
}

bool
geti64(std::istream &is, std::int64_t &v)
{
    std::uint64_t u = 0;
    if (!get64(is, u))
        return false;
    v = static_cast<std::int64_t>(u);
    return true;
}

bool
getf64(std::istream &is, double &v)
{
    std::uint64_t u = 0;
    if (!get64(is, u))
        return false;
    v = std::bit_cast<double>(u);
    return true;
}

} // namespace

std::uint64_t
graphFingerprint(const Graph &graph)
{
    Fnv h;
    h.str(graph.name());
    h.u64(graph.numTensors());
    for (const TensorDesc &t : graph.tensors()) {
        h.str(t.name);
        h.u64(t.bytes);
        h.u64(static_cast<std::uint64_t>(t.kind));
        h.u64(t.shape.size());
        for (std::int64_t d : t.shape)
            h.i64(d);
    }
    h.u64(graph.numOps());
    for (const Operation &op : graph.ops()) {
        h.str(op.name);
        h.u64(static_cast<std::uint64_t>(op.category));
        h.u64(static_cast<std::uint64_t>(op.phase));
        h.u64(op.inputs.size());
        for (TensorId id : op.inputs)
            h.u64(id);
        h.u64(op.outputs.size());
        for (TensorId id : op.outputs)
            h.u64(id);
        h.f64(op.flops);
        h.f64(op.memBytes);
        h.u64(op.fastWorkspaceBytes);
        h.f64(op.fallbackSlowdown);
        h.f64(op.fastAlgoSpeedup);
        h.u64(op.recomputable ? 1 : 0);
    }
    h.u64(graph.variants().size());
    for (const GraphVariant &v : graph.variants()) {
        h.str(v.name);
        h.u64(v.ops.size());
        for (OpId id : v.ops)
            h.u64(id);
    }
    return h.value();
}

std::uint64_t
planDigest(const Plan &plan)
{
    Fnv h;
    h.u64(plan.items.size());
    h.u64(plan.targetBytes);
    h.u64(plan.plannedBytes);
    h.u64(plan.peak.valid ? 1 : 0);
    h.u64(plan.peak.lo);
    h.u64(plan.peak.hi);
    h.u64(plan.peak.peakBytes);
    h.u64(plan.swapCount);
    h.u64(plan.recomputeCount);
    for (const PlannedEviction &it : plan.items) {
        h.u64(it.tensor);
        h.u64(static_cast<std::uint64_t>(it.mode));
        h.u64(it.bytes);
        h.i64(it.evictAfterAccess);
        h.i64(it.backAccess);
        h.u64(it.evictTime);
        h.u64(it.backTime);
        h.u64(it.swapTime);
        h.u64(it.freeTime);
        h.u64(it.desiredSwapInStart);
        h.u64(it.triggerTensor);
        h.i64(it.triggerAccess);
        h.u64(it.recomputeTime);
        h.u64(it.estimatedOverhead);
    }
    return h.value();
}

const char *
planLoadStatusName(PlanLoadStatus status)
{
    switch (status) {
    case PlanLoadStatus::Ok:
        return "ok";
    case PlanLoadStatus::BadMagic:
        return "bad-magic";
    case PlanLoadStatus::VersionMismatch:
        return "version-mismatch";
    case PlanLoadStatus::FingerprintMismatch:
        return "fingerprint-mismatch";
    case PlanLoadStatus::Truncated:
        return "truncated";
    case PlanLoadStatus::DigestMismatch:
        return "digest-mismatch";
    }
    return "?";
}

void
serializePlan(std::ostream &os, const Plan &plan,
              std::uint64_t graph_fingerprint)
{
    put64(os, kPlanMagic);
    put32(os, kPlanFormatVersion);
    put64(os, graph_fingerprint);
    put64(os, planDigest(plan));
    put64(os, plan.items.size());
    put64(os, plan.targetBytes);
    put64(os, plan.plannedBytes);
    put32(os, plan.peak.valid ? 1 : 0);
    put64(os, plan.peak.lo);
    put64(os, plan.peak.hi);
    put64(os, plan.peak.peakBytes);
    put64(os, plan.swapCount);
    put64(os, plan.recomputeCount);
    for (const PlannedEviction &it : plan.items) {
        put32(os, it.tensor);
        put32(os, static_cast<std::uint32_t>(it.mode));
        put64(os, it.bytes);
        puti64(os, it.evictAfterAccess);
        puti64(os, it.backAccess);
        put64(os, it.evictTime);
        put64(os, it.backTime);
        put64(os, it.swapTime);
        put64(os, it.freeTime);
        put64(os, it.desiredSwapInStart);
        put32(os, it.triggerTensor);
        puti64(os, it.triggerAccess);
        put64(os, it.recomputeTime);
        putf64(os, 0.0); // reserved (layout slack for future fields)
        put64(os, it.estimatedOverhead);
    }
}

PlanLoadStatus
loadPlan(std::istream &is, Plan &out, std::uint64_t expect_fingerprint,
         PlanFileInfo *info)
{
    out = Plan{};
    std::uint64_t magic = 0;
    if (!get64(is, magic))
        return PlanLoadStatus::Truncated;
    if (magic != kPlanMagic)
        return PlanLoadStatus::BadMagic;
    PlanFileInfo hdr;
    if (!get32(is, hdr.version))
        return PlanLoadStatus::Truncated;
    if (hdr.version != kPlanFormatVersion) {
        if (info)
            *info = hdr;
        return PlanLoadStatus::VersionMismatch;
    }
    if (!get64(is, hdr.fingerprint) || !get64(is, hdr.digest))
        return PlanLoadStatus::Truncated;
    if (info)
        *info = hdr;
    if (hdr.fingerprint != expect_fingerprint)
        return PlanLoadStatus::FingerprintMismatch;

    Plan plan;
    std::uint64_t n_items = 0;
    std::uint32_t peak_valid = 0;
    std::uint64_t tmp64 = 0;
    if (!get64(is, n_items) || !get64(is, plan.targetBytes) ||
        !get64(is, plan.plannedBytes) || !get32(is, peak_valid) ||
        !get64(is, plan.peak.lo) || !get64(is, plan.peak.hi) ||
        !get64(is, plan.peak.peakBytes))
        return PlanLoadStatus::Truncated;
    plan.peak.valid = peak_valid != 0;
    if (!get64(is, tmp64))
        return PlanLoadStatus::Truncated;
    plan.swapCount = tmp64;
    if (!get64(is, tmp64))
        return PlanLoadStatus::Truncated;
    plan.recomputeCount = tmp64;

    // n_items sizes no allocation: a count the payload cannot back ends in
    // Truncated at the first missing item.
    for (std::uint64_t i = 0; i < n_items; ++i) {
        PlannedEviction it;
        std::uint32_t tensor = 0, mode = 0, trigger = 0;
        std::int64_t evict_after = 0, back = 0, trig_access = 0;
        double reserved = 0.0;
        if (!get32(is, tensor) || !get32(is, mode) || !get64(is, it.bytes) ||
            !geti64(is, evict_after) || !geti64(is, back) ||
            !get64(is, it.evictTime) || !get64(is, it.backTime) ||
            !get64(is, it.swapTime) || !get64(is, it.freeTime) ||
            !get64(is, it.desiredSwapInStart) || !get32(is, trigger) ||
            !geti64(is, trig_access) || !get64(is, it.recomputeTime) ||
            !getf64(is, reserved) || !get64(is, it.estimatedOverhead)) {
            out = Plan{};
            return PlanLoadStatus::Truncated;
        }
        it.tensor = tensor;
        it.mode = static_cast<RegenChoice>(mode);
        it.evictAfterAccess = static_cast<int>(evict_after);
        it.backAccess = static_cast<int>(back);
        it.triggerTensor = trigger;
        it.triggerAccess = static_cast<int>(trig_access);
        plan.items.push_back(it);
    }

    if (planDigest(plan) != hdr.digest) {
        out = Plan{};
        return PlanLoadStatus::DigestMismatch;
    }
    out = std::move(plan);
    return PlanLoadStatus::Ok;
}

bool
savePlanFile(const std::string &path, const Plan &plan,
             std::uint64_t graph_fingerprint)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        warn("plan_io: cannot open '{}' for writing", path);
        return false;
    }
    serializePlan(os, plan, graph_fingerprint);
    return static_cast<bool>(os);
}

PlanLoadStatus
loadPlanFile(const std::string &path, Plan &out,
             std::uint64_t expect_fingerprint, PlanFileInfo *info)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        out = Plan{};
        return PlanLoadStatus::Truncated;
    }
    return loadPlan(is, out, expect_fingerprint, info);
}

} // namespace capu
