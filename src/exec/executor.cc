#include "exec/executor.hh"

#include <algorithm>
#include <limits>

#include "support/logging.hh"
#include "support/rng.hh"

namespace capu
{

namespace
{

/**
 * Eager activations are allocated with this slack factor: graph mode's
 * buffer forwarding, pruning and fusion shrink the activation footprint
 * relative to op-by-op execution (paper §6.4.1: ResNet-50 fits 190 in
 * graph mode but only 122 eagerly).
 */
constexpr double kEagerActivationSlack = 1.5;

/** Host-side dispatch cost per op in eager mode (Python interpreter). */
constexpr Tick kEagerHostOverhead = ticksFromUs(30);

/** Pinned host staging capacity (the testbed had 256 GB). */
constexpr std::uint64_t kHostPoolBytes = 256ull << 30;

// Chunk owner tags are TensorIds; an untagged chunk reads as no tensor.
static_assert(BfcAllocator::kNoOwner == kInvalidTensor);

} // namespace

Executor::Executor(const Graph &graph, ExecConfig config,
                   MemoryPolicy *policy)
    : graph_(graph), config_(std::move(config)), policy_(policy),
      cost_(config_.device), faults_(config_.faults, config_.seed),
      mem_(config_.device.memCapacity,
           faults_.clampHostBytes(kHostPoolBytes), config_.allocator),
      compute_("compute"),
      pcie_(config_.device.pcieBandwidth, config_.device.pcieLatency)
{
    if (config_.eagerMode && policy_ && !policy_->graphAgnostic())
        fatal("policy '{}' requires a computation graph and cannot run in "
              "eager mode", policy_->name());
    obs_.configure(config_.obsLevel, config_.obsRingCapacity);
    compute_.attachTracer(&obs_.tracer, obs::kTrackCompute);
    pcie_.attachTracer(&obs_.tracer);
    mem_.attachTracer(&obs_.tracer);
    obs_.tracer.setTrackName(obs::kTrackHost, "host");
    obs_.tracer.setTrackName(obs::kTrackPolicy, "policy");
    obs_.tracer.setMeta("seed", fmt("{}", config_.seed));
    obs_.tracer.setMeta("faults", faults_.spec().summary());
    if (faults_.enabled()) {
        faults_.attachTracer(&obs_.tracer);
        pcie_.attachFaults(&faults_);
        inform("capuchaos armed: {} (seed {})", faults_.spec().summary(),
               config_.seed);
    } else {
        obs_.tracer.setTrackName(obs::kTrackRecovery, "recovery");
    }
    if (obs_.metricsOn())
        obs_.metrics.setCounter("run.seed", config_.seed);
    // Replay needs determinism the fault engine's RNG-driven perturbations
    // deny; with a fault plan active the armed bit stays off and the
    // per-access hash is never maintained.
    replayArmed_ = config_.replay.enabled && !faults_.enabled();
    if (replayArmed_)
        obs_.tracer.setTrackName(obs::kTrackReplay, "replay");
    if (graph_.dynamic())
        obs_.tracer.setTrackName(obs::kTrackDrift, "drift");
}

Executor::Executor(const Executor &other, const Graph &graph,
                   MemoryPolicy *policy)
    : graph_(graph), config_(other.config_), policy_(policy),
      cost_(other.cost_), faults_(other.faults_), obs_(other.obs_),
      mem_(other.mem_), compute_(other.compute_), pcie_(other.pcie_),
      schedule_(other.schedule_),
      variantSchedules_(other.variantSchedules_),
      activeVariant_(other.activeVariant_), states_(other.states_),
      usesPerIteration_(other.usesPerIteration_),
      lastUsePos_(other.lastUsePos_), nameHash_(other.nameHash_),
      clock_(other.clock_), hostClock_(other.hostClock_),
      computeBarrier_(other.computeBarrier_),
      iteration_(other.iteration_), setupDone_(other.setupDone_),
      currentOp_(other.currentOp_), currentOpEnd_(other.currentOpEnd_),
      stats_(other.stats_), replayArmed_(other.replayArmed_),
      iterAccessHash_(other.iterAccessHash_),
      fed_(other.fed_),
      labels_(other.labels_)
{
    // The member-wise copies above left four raw observer pointers aimed
    // at `other`'s tracer / fault engine. Re-attach them to this copy's
    // own instances; attachment is a pure pointer swap (never touches
    // simulated time), so the fork's machine state stays bit-identical.
    compute_.attachTracer(&obs_.tracer, obs::kTrackCompute);
    pcie_.attachTracer(&obs_.tracer);
    mem_.attachTracer(&obs_.tracer);
    if (faults_.enabled()) {
        faults_.attachTracer(&obs_.tracer);
        pcie_.attachFaults(&faults_);
    }
}

TensorState &
Executor::state(TensorId id)
{
    if (id >= states_.size())
        panic("tensor id {} out of range", id);
    return states_[id];
}

const TensorState &
Executor::state(TensorId id) const
{
    if (id >= states_.size())
        panic("tensor id {} out of range", id);
    return states_[id];
}

const TensorState &
Executor::tensorState(TensorId id) const
{
    return state(id);
}

std::uint64_t
Executor::allocBytes(TensorId id) const
{
    const TensorDesc &t = graph_.tensor(id);
    if (config_.eagerMode && (t.kind == TensorKind::FeatureMap ||
                              t.kind == TensorKind::Gradient)) {
        return static_cast<std::uint64_t>(
            static_cast<double>(t.bytes) * kEagerActivationSlack);
    }
    return t.bytes;
}

std::uint64_t
Executor::wireBytes(std::uint64_t bytes) const
{
    if (config_.swapCompressionRatio <= 1.0)
        return bytes;
    return static_cast<std::uint64_t>(
        static_cast<double>(bytes) / config_.swapCompressionRatio);
}

TensorStatus
Executor::effectiveStatus(const TensorState &st, Tick at) const
{
    if (st.status == TensorStatus::SwappingOut && at >= st.swapOutDone)
        return TensorStatus::Out;
    if (st.status == TensorStatus::SwappingIn && at >= st.swapInReady)
        return TensorStatus::In;
    return st.status;
}

void
Executor::bindGpu(TensorId id, MemHandle h)
{
    TensorState &st = state(id);
    if (st.gpuHandle)
        panic("tensor {} bound to GPU chunk {} while holding chunk {}",
              graph_.tensor(id).name, h, *st.gpuHandle);
    TensorId prev = mem_.gpu().tagOwner(h, id);
    if (prev != kInvalidTensor)
        panic("tensors {} and {} share GPU chunk {}",
              graph_.tensor(prev).name, graph_.tensor(id).name, h);
    st.gpuHandle = h;
}

MemHandle
Executor::unbindGpu(TensorId id)
{
    TensorState &st = state(id);
    if (!st.gpuHandle)
        panic("unbind of tensor {} holding no GPU chunk",
              graph_.tensor(id).name);
    MemHandle h = *st.gpuHandle;
    st.gpuHandle.reset();
    if (mem_.gpu().tagOwner(h, BfcAllocator::kNoOwner) != id)
        panic("GPU chunk {} of tensor {} carries another owner tag", h,
              graph_.tensor(id).name);
    return h;
}

void
Executor::setup()
{
    if (setupDone_)
        panic("setup() called twice");
    schedule_ = graph_.topoOrder();
    states_.assign(graph_.numTensors(), TensorState{});
    usesPerIteration_.assign(graph_.numTensors(), 0);
    for (std::size_t t = 0; t < graph_.numTensors(); ++t) {
        usesPerIteration_[t] =
            static_cast<int>(graph_.consumers(static_cast<TensorId>(t))
                                 .size());
    }
    // Schedule position of each tensor's last consumer (-1 = never
    // consumed). Host copies die at refcount zero, i.e. right after this
    // position; canRegenerateStably() uses it to decide whether a host
    // copy will still exist when a dropped descendant replays.
    lastUsePos_.assign(graph_.numTensors(), -1);
    for (std::size_t p = 0; p < schedule_.size(); ++p) {
        for (TensorId in : graph_.op(schedule_[p]).inputs)
            lastUsePos_[in] = static_cast<int>(p);
    }
    nameHash_.resize(graph_.numTensors());
    for (const TensorDesc &t : graph_.tensors()) {
        std::uint64_t h = hashString(t.name.c_str());
        if (t.producer != kInvalidOp)
            h = hashCombine(hashString(graph_.op(t.producer).name.c_str()), h);
        nameHash_[t.id] = h;
    }
    // Dynamic graphs: slice the global topological order per variant. A
    // variant slice is an order-preserving filter of schedule_, so within-
    // variant relative positions (all lastUsePos_ comparisons ever made)
    // are unchanged by the slicing.
    if (graph_.dynamic()) {
        const auto &vars = graph_.variants();
        std::vector<std::size_t> variantOf(graph_.numOps(), vars.size());
        for (std::size_t v = 0; v < vars.size(); ++v) {
            for (OpId id : vars[v].ops) {
                if (variantOf[id] != vars.size())
                    panic("op {} belongs to two variants",
                          graph_.op(id).name);
                variantOf[id] = v;
            }
        }
        variantSchedules_.assign(vars.size(), {});
        for (OpId id : schedule_) {
            if (variantOf[id] == vars.size())
                panic("op {} of dynamic graph {} belongs to no variant",
                      graph_.op(id).name, graph_.name());
            variantSchedules_[variantOf[id]].push_back(id);
        }
    }
    setupWeights();
    if (policy_)
        policy_->attach(graph_, schedule_, config_);
    setupDone_ = true;
}

void
Executor::setActiveVariant(std::size_t variant)
{
    if (!setupDone_)
        setup();
    if (!graph_.dynamic()) {
        if (variant == 0)
            return;
        panic("setActiveVariant({}) on static graph {}", variant,
              graph_.name());
    }
    if (variant >= graph_.variants().size())
        panic("variant {} out of range ({} variants)", variant,
              graph_.variants().size());
    activeVariant_ = variant;
    if (policy_)
        policy_->onShapeClass(variant);
}

const std::vector<OpId> &
Executor::activeSchedule() const
{
    return graph_.dynamic() ? variantSchedules_[activeVariant_] : schedule_;
}

void
Executor::setupWeights()
{
    for (const auto &t : graph_.tensors()) {
        if (t.kind != TensorKind::Weight)
            continue;
        // Weights are permanent: pack them at the bottom of the arena so
        // they never fragment the large-tensor region at the top.
        auto h = mem_.allocate(0, t.bytes, BfcAllocator::Placement::Low);
        if (!h) {
            throw OomError(
                fmt("weights alone exceed GPU memory (placing {})",
                    describeTensor(t)),
                t.bytes, oomContext(t.id));
        }
        bindGpu(t.id, *h);
        TensorState &st = state(t.id);
        st.status = TensorStatus::In;
        st.produced = true;
        st.weightVersion = 0;
        st.fingerprint = hashCombine(nameHash_[t.id], 0);
        st.expectedFp = st.fingerprint;
    }
}

void
Executor::abortIteration()
{
    // Fence the retry behind everything the aborted attempt put in flight:
    // the compute stream and both PCIe lanes (a lane's drain tick covers
    // every transfer it ever carried, including half-finished swap-ins
    // whose buffers are freed below). Without the fence the retried
    // iteration's ops start at compute busyUntil and can rewind behind the
    // aborted attempt's transfer events, overlapping them on reused
    // buffers.
    clock_ = std::max(clock_, compute_.busyUntil());
    clock_ = std::max(clock_, pcie_.laneBusyUntil(CopyDir::DeviceToHost));
    clock_ = std::max(clock_, pcie_.laneBusyUntil(CopyDir::HostToDevice));
    mem_.drainAll();
    for (std::size_t i = 0; i < states_.size(); ++i) {
        auto id = static_cast<TensorId>(i);
        TensorState &st = states_[i];
        if (graph_.tensor(id).kind == TensorKind::Weight) {
            st.pinCount = 0;
            continue;
        }
        if (st.gpuHandle)
            mem_.freeNow(clock_, unbindGpu(id));
        retire(id, clock_);
        st.pinCount = 0;
        st.accessCount = 0;
    }
    compute_.fence(clock_);
    pcie_.lane(CopyDir::DeviceToHost).fence(clock_);
    pcie_.lane(CopyDir::HostToDevice).fence(clock_);
    computeBarrier_ = clock_;
    currentOp_ = kInvalidOp;
    mem_.gpu().checkInvariants();
    if (obs_.tracing())
        obs_.tracer.instant(obs::kTrackHost, obs::EventKind::Marker, clock_,
                            "iter.abort:" + std::to_string(iteration_));
    obs_.metrics.add("iter.aborts");
}

IterationStats
Executor::runIteration()
{
    if (!setupDone_)
        setup();
    beginIterationState();
    for (OpId id : activeSchedule())
        runOp(id);
    finishIterationState();
    return stats_;
}

void
Executor::beginIterationState()
{
    stats_ = IterationStats{};
    stats_.iteration = iteration_;
    stats_.begin = std::max(clock_, compute_.busyUntil());
    iterAccessHash_ = 0;
    mem_.gpu().resetPeak();
    for (auto &st : states_)
        st.accessCount = 0;
    if (obs_.tracing())
        obs_.tracer.instant(obs::kTrackHost, obs::EventKind::Marker,
                            stats_.begin,
                            "iter:" + std::to_string(iteration_));
    if (graph_.dynamic()) {
        if (obs_.tracing())
            obs_.tracer.instant(obs::kTrackDrift, obs::EventKind::Marker,
                                stats_.begin,
                                "drift.class:" +
                                    std::to_string(activeVariant_));
        // Gauge, not counter: the class index is non-monotonic and counter
        // deltas are unsigned in the replay digest machinery.
        obs_.metrics.set("capu.drift.class",
                         static_cast<double>(activeVariant_));
    }
    if (policy_)
        policy_->beginIteration(*this);
}

void
Executor::finishIterationState()
{
    clock_ = std::max(clock_, compute_.busyUntil());
    // Reclaim anything a policy left behind (host copies of tensors whose
    // last access was served from GPU, stale eviction markers, ...).
    for (std::size_t i = 0; i < states_.size(); ++i) {
        auto id = static_cast<TensorId>(i);
        TensorState &st = states_[i];
        if (graph_.tensor(id).kind == TensorKind::Weight)
            continue;
        if (st.gpuHandle) {
            warn("tensor {} still resident at iteration end",
                 graph_.tensor(id).name);
            mem_.freeAt(std::max(clock_, st.swapOutDone), unbindGpu(id));
        }
        retire(id, clock_);
    }
    stats_.end = clock_;
    stats_.peakGpuBytes = mem_.gpu().stats().peakBytesInUse;
    if (policy_)
        policy_->endIteration(*this, stats_);
    feedIterationMetrics();
    obs_.metrics.snapshotIteration(iteration_);
    if (obs_.tracing()) {
        obs_.tracer.complete(obs::kTrackHost, obs::EventKind::Marker,
                             stats_.begin, stats_.duration(),
                             "iteration:" + std::to_string(iteration_));
        // After the marker, so the count covers every record this
        // iteration could have pushed out of the ring.
        obs_.metrics.setCounter("capu.obs.trace_dropped",
                                obs_.tracer.dropped());
    }
    ++iteration_;
}

std::string
OomContext::describe(std::uint64_t requested_bytes) const
{
    int frag_pct = static_cast<int>(fragmentation * 100.0 + 0.5);
    std::string s = fmt("OOM post-mortem (iteration {}):\n", iteration);
    s += fmt("  request: {}", formatBytes(requested_bytes));
    if (tensor != kInvalidTensor)
        s += fmt(" for tensor '{}' (id {})", tensorName, tensor);
    s += "\n";
    if (op != kInvalidOp)
        s += fmt("  executing op: '{}' (id {})\n", opName, op);
    s += fmt("  gpu: {} in use, {} free, largest free chunk {}, "
             "{} free chunks, fragmentation {}%\n",
             formatBytes(gpuBytesInUse), formatBytes(gpuBytesFree),
             formatBytes(largestFreeChunk), freeChunkCount, frag_pct);
    s += fmt("  host pool: {} / {} in use", formatBytes(hostBytesInUse),
             formatBytes(hostCapacity));
    return s;
}

OomContext
Executor::oomContext(TensorId tensor) const
{
    OomContext ctx;
    ctx.op = currentOp_;
    if (currentOp_ != kInvalidOp)
        ctx.opName = graph_.op(currentOp_).name;
    ctx.tensor = tensor;
    if (tensor != kInvalidTensor)
        ctx.tensorName = graph_.tensor(tensor).name;
    const BfcStats &bfc = mem_.gpu().stats();
    ctx.gpuBytesInUse = bfc.bytesInUse;
    ctx.gpuBytesFree = mem_.gpu().bytesFree();
    ctx.largestFreeChunk = bfc.largestFreeChunk;
    ctx.freeChunkCount = bfc.freeChunkCount;
    ctx.fragmentation = mem_.gpu().fragmentation();
    ctx.hostBytesInUse = mem_.host().bytesInUse();
    ctx.hostCapacity = mem_.host().capacity();
    ctx.iteration = iteration_;
    return ctx;
}

MemHandle
Executor::allocateOrDie(Tick &at, std::uint64_t bytes,
                        const std::string &what, TensorId tensor)
{
    while (true) {
        Tick t0 = at;
        if (auto h = mem_.allocateWaiting(at, bytes)) {
            stats_.allocStall += at - t0;
            if (at > t0) {
                obs_.tracer.complete(obs::kTrackHost, obs::EventKind::OomStep,
                                     t0, at - t0, "oom.wait-free", -1, -1,
                                     bytes);
            }
            clock_ = std::max(clock_, at);
            return *h;
        }
        at = std::max(at, t0);
        clock_ = std::max(clock_, at);
        if (policy_ && policy_->onAllocFailure(*this, bytes)) {
            obs_.tracer.instant(obs::kTrackHost, obs::EventKind::OomStep, at,
                                "oom.policy-assist", -1, -1, bytes);
            obs_.metrics.add("oom.policy_assists");
            continue;
        }
        obs_.tracer.instant(obs::kTrackHost, obs::EventKind::OomStep, at,
                            "oom.raise", -1, -1, bytes);
        obs_.metrics.add("oom.raises");
        throw OomError(
            fmt("OOM allocating {} for {} (in use {}, largest free {})",
                formatBytes(bytes), what,
                formatBytes(mem_.gpu().bytesInUse()),
                formatBytes(mem_.gpu().stats().largestFreeChunk)),
            bytes, oomContext(tensor));
    }
}

Tick
Executor::ensureResident(TensorId id, Tick at)
{
    TensorState &st = state(id);
    switch (effectiveStatus(st, at)) {
      case TensorStatus::In:
        if (st.status == TensorStatus::SwappingIn) {
            // Prefetch completed before this access arrived: the transfer
            // fully hid. Normalize (the SwappingIn case does the same when
            // the stall is zero) and close the SWAPPING_IN phase.
            st.status = TensorStatus::In;
            notePhase(id, ObsPhase::In, st.swapInReady);
        }
        return at;
      case TensorStatus::SwappingOut:
        // SwappingOut: chunk is freed only at transfer completion, so the
        // data is still readable on-device until then.
        return at;

      case TensorStatus::SwappingIn: {
          Tick stall = st.swapInReady > at ? st.swapInReady - at : 0;
          if (stall > 0) {
              stats_.inputStall += stall;
              stats_.prefetchStall += stall;
              obs_.tracer.complete(obs::kTrackHost, obs::EventKind::Stall,
                                   at, stall, tensorLabel("stall:", id),
                                   static_cast<std::int64_t>(id));
              if (policy_)
                  policy_->onBackAccessStall(*this, id, stall);
          }
          st.status = TensorStatus::In;
          notePhase(id, ObsPhase::In, std::max(at, st.swapInReady));
          return std::max(at, st.swapInReady);
      }

      case TensorStatus::Out: {
          if (!st.hasHostCopy) {
              panic("tensor {} accessed while absent with no host copy",
                    graph_.tensor(id).name);
          }
          // On-demand swap-in (passive mode / missed prefetch).
          Tick t0 = at;
          MemHandle h = allocateOrDie(at, allocBytes(id),
                                      graph_.tensor(id).name, id);
          obs_.tracer.instant(obs::kTrackRecovery, obs::EventKind::Recovery,
                              at, tensorLabel("recovery.ondemand-swapin:", id),
                              static_cast<std::int64_t>(id));
          Tick done = swapIn(id, h, at, "swapin:");
          st.status = TensorStatus::In;
          obs_.metrics.add("swap.ondemand_count");
          notePhase(id, ObsPhase::In, done);
          Tick stall = done - t0;
          stats_.inputStall += stall;
          obs_.tracer.complete(obs::kTrackHost, obs::EventKind::Stall, t0,
                               stall, tensorLabel("stall:", id),
                               static_cast<std::int64_t>(id));
          if (policy_)
              policy_->onBackAccessStall(*this, id, stall);
          return done;
      }

      case TensorStatus::Recompute:
        return recomputeTensor(id, at);
    }
    panic("unreachable tensor status");
}

Tick
Executor::recomputeTensor(TensorId target, Tick at)
{
    // --- 1. Plan: ops whose replay regenerates `target` from residents ---
    // Everything here stays local: ensureResident() below can re-enter
    // recomputeTensor() mid-replay when a passive eviction drops a source.
    std::vector<OpId> plan;
    plan.reserve(16);
    std::vector<bool> in_plan(graph_.numOps(), false);

    std::vector<TensorId> stack{target};
    while (!stack.empty()) {
        TensorId tid = stack.back();
        stack.pop_back();
        TensorState &st = state(tid);
        TensorStatus s = effectiveStatus(st, at);
        if (s == TensorStatus::In || s == TensorStatus::SwappingOut ||
            s == TensorStatus::SwappingIn) {
            continue; // resident source
        }
        if (s == TensorStatus::Out && st.hasHostCopy)
            continue; // swappable source; fetched on demand during replay
        OpId prod = graph_.tensor(tid).producer;
        if (prod == kInvalidOp)
            panic("recompute of {} reached an unproduced tensor",
                  graph_.tensor(tid).name);
        const Operation &op = graph_.op(prod);
        if (!op.recomputable)
            panic("recompute of {} requires non-recomputable op {}",
                  graph_.tensor(tid).name, op.name);
        if (in_plan[prod])
            continue;
        in_plan[prod] = true;
        plan.push_back(prod);
        stack.insert(stack.end(), op.inputs.begin(), op.inputs.end());
    }
    // Op ids are assigned in construction order, which is topological for
    // builder-produced graphs; sorting restores dependency order.
    std::sort(plan.begin(), plan.end());

    if (plan.empty())
        panic("recompute plan for {} is empty", graph_.tensor(target).name);
    obs_.metrics.observe("recompute.chain_ops", plan.size());

    // Tensors kept alive only as replay intermediates (no scheduled uses
    // left) and tensors with future uses retained by collective
    // recomputation; both are released under memory pressure — the paper's
    // "kept if the memory is enough; otherwise released" rule (§5.3).
    // Each is pooled with the largest id among the plan ops that read it
    // (-1: none). `plan` is sorted by op id, so an op at or after position
    // p reads the tensor exactly when that id >= plan[p].
    struct Pooled
    {
        TensorId id;
        std::int64_t lastReader;
    };
    auto pooled = [&](TensorId tid) {
        std::int64_t last = -1;
        for (OpId c : graph_.consumers(tid)) {
            if (in_plan[c])
                last = std::max<std::int64_t>(last, c);
        }
        return Pooled{tid, last};
    };
    std::vector<Pooled> scratch;
    scratch.reserve(plan.size());
    std::vector<Pooled> kept;
    kept.reserve(plan.size());

    // Free the pooled tensors no op at or after `plan_pos` reads, in pool
    // order: the order decides which same-tick frees coalesce first.
    auto release_from = [&](std::vector<Pooled> &pool, Tick when,
                            std::size_t plan_pos) {
        const std::int64_t first_op =
            plan_pos < plan.size() ? plan[plan_pos]
                                   : std::numeric_limits<std::int64_t>::max();
        bool any = false;
        std::size_t kept_count = 0;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (pool[i].lastReader >= first_op) {
                pool[kept_count++] = pool[i];
                continue;
            }
            if (state(pool[i].id).gpuHandle) {
                dropAt(pool[i].id, when);
                any = true;
            }
        }
        pool.resize(kept_count);
        return any;
    };
    auto release_scratch = [&](Tick when, std::size_t plan_pos) {
        return release_from(scratch, when, plan_pos);
    };

    // --- 2. Replay ---
    for (std::size_t p = 0; p < plan.size(); ++p) {
        const Operation &op = graph_.op(plan[p]);

        // Pin the replay op's tensors: a policy reacting to the allocation
        // pressure below must not free what this kernel is about to read.
        for (TensorId in : op.inputs)
            ++state(in).pinCount;
        for (TensorId out : op.outputs)
            ++state(out).pinCount;

        for (TensorId in : op.inputs)
            at = ensureResident(in, at);
        for (TensorId in : op.inputs)
            verifyFingerprint(in, op);

        bool fast = true;
        std::optional<MemHandle> ws;
        if (op.fastWorkspaceBytes > 0) {
            ws = mem_.allocate(at, op.fastWorkspaceBytes);
            if (!ws) {
                fast = false;
                ++stats_.fallbackKernels;
            }
        }

        for (TensorId out : op.outputs) {
            TensorState &ost = state(out);
            if (ost.gpuHandle)
                continue; // already live (multi-output op partially kept)
            auto h = mem_.allocate(at, allocBytes(out));
            if (!h && release_scratch(at, p))
                h = mem_.allocate(at, allocBytes(out));
            if (!h && release_from(kept, at, p))
                h = mem_.allocate(at, allocBytes(out));
            if (!h) {
                clock_ = std::max(clock_, at);
                h = allocateOrDie(at, allocBytes(out),
                                  graph_.tensor(out).name, out);
            }
            bindGpu(out, *h);
            ost.status = TensorStatus::In;
            ost.swapInReady = 0;
            notePhase(out, ObsPhase::In, at);
        }

        Tick dur = cost_.opDuration(op, fast);
        if (faults_.enabled())
            dur = faults_.jitterKernel(dur);
        Tick end = compute_.enqueue(at, dur, opLabel(plan[p], true),
                                    obs::EventKind::Recompute,
                                    static_cast<std::int64_t>(target),
                                    static_cast<std::int64_t>(plan[p]));
        at = end;
        stats_.recomputeBusy += dur;
        ++stats_.recomputeOps;
        if (ws)
            mem_.freeAt(end, *ws);

        for (TensorId in : op.inputs)
            --state(in).pinCount;
        for (TensorId out : op.outputs)
            --state(out).pinCount;

        for (TensorId out : op.outputs) {
            produceFingerprint(out, op);
            TensorState &ost = state(out);
            ost.produced = true;
            bool is_target = out == target;
            bool has_future_uses = ost.remainingUses > 0;
            if (is_target)
                continue;
            if (has_future_uses) {
                if (config_.collectiveRecompute) {
                    // Keep it: one replay satisfies several targets (§5.3).
                    kept.push_back(pooled(out));
                    continue;
                }
                // Non-collective: release; it will be replayed again later.
                dropAt(out, end);
            } else {
                scratch.push_back(pooled(out));
            }
        }
    }

    release_scratch(at, plan.size());
    ++stats_.recomputedTensors;
    clock_ = std::max(clock_, at);
    return at;
}

void
Executor::produceFingerprint(TensorId id, const Operation &op)
{
    // `op` is `id`'s producer, whose name nameHash_ already holds.
    TensorState &st = state(id);
    std::uint64_t fp = nameHash_[id];
    if (op.category == OpCategory::Source) {
        // Fresh batch each iteration: not reproducible by replay.
        fp = hashCombine(fp, static_cast<std::uint64_t>(iteration_));
    }
    for (TensorId in : op.inputs)
        fp = hashCombine(fp, state(in).fingerprint);
    st.fingerprint = fp;
    st.expectedFp = fp;
}

void
Executor::verifyFingerprint(TensorId id, const Operation &op)
{
    obs_.metrics.add("fingerprint.checks");
    const TensorState &st = state(id);
    if (st.fingerprint != st.expectedFp) {
        panic("fingerprint mismatch on {} consumed by {}: data {} expected "
              "{} (stale or corrupted regeneration)",
              graph_.tensor(id).name, op.name, st.fingerprint,
              st.expectedFp);
    }
}

void
Executor::runOp(OpId id)
{
    const Operation &op = graph_.op(id);
    currentOp_ = id;

    Tick t = std::max(compute_.busyUntil(), computeBarrier_);
    if (config_.eagerMode) {
        hostClock_ = std::max(hostClock_, t > kEagerHostOverhead
                                              ? t - kEagerHostOverhead
                                              : 0);
        hostClock_ += kEagerHostOverhead;
        t = std::max(t, hostClock_);
    }
    clock_ = std::max(clock_, t);

    for (TensorId in : op.inputs)
        ++state(in).pinCount;
    for (TensorId out : op.outputs)
        ++state(out).pinCount;

    // (1) Inputs resident.
    for (TensorId in : op.inputs) {
        t = ensureResident(in, t);
        clock_ = std::max(clock_, t);
    }
    for (TensorId in : op.inputs)
        verifyFingerprint(in, op);

    // (2) Workspace: fast algorithm if scratch fits right now, else the
    // slower no-workspace fallback (cuDNN under a workspace limit).
    bool fast = true;
    std::optional<MemHandle> ws;
    if (op.fastWorkspaceBytes > 0) {
        ws = mem_.allocate(t, op.fastWorkspaceBytes);
        if (!ws) {
            fast = false;
            ++stats_.fallbackKernels;
        }
    }

    // (3) Outputs. Graph mode forwards the input buffer to outputs[0] when
    // the op is in-place-eligible and this is the input's last use
    // (TensorFlow's buffer forwarding; eager mode lacks it).
    bool aliased = false;
    if (!config_.eagerMode && op.inplaceEligible && !op.inputs.empty() &&
        !op.outputs.empty()) {
        TensorId in0 = op.inputs[0];
        TensorId out0 = op.outputs[0];
        TensorState &ist = state(in0);
        const TensorDesc &in_desc = graph_.tensor(in0);
        bool movable = (in_desc.kind == TensorKind::FeatureMap ||
                        in_desc.kind == TensorKind::Gradient) &&
                       graph_.consumers(in0).size() == 1 &&
                       ist.remainingUses == 1 && ist.gpuHandle &&
                       effectiveStatus(ist, t) == TensorStatus::In &&
                       allocBytes(out0) <=
                           mem_.gpu().allocationSize(*ist.gpuHandle);
        if (movable) {
            TensorState &ost = state(out0);
            bindGpu(out0, unbindGpu(in0));
            ost.status = TensorStatus::In;
            ost.swapInReady = 0;
            ost.produced = true;
            ost.remainingUses = usesPerIteration_[out0];
            aliased = true;
            ++stats_.inplaceForwards;
            closePhase(in0, t);
            notePhase(out0, ObsPhase::In, t);
        }
    }
    for (std::size_t oi = 0; oi < op.outputs.size(); ++oi) {
        if (aliased && oi == 0)
            continue;
        TensorId out = op.outputs[oi];
        TensorState &st = state(out);
        if (st.gpuHandle) {
            panic("output {} already allocated (status {}, produced {}, "
                  "uses {}, hostcopy {})",
                  graph_.tensor(out).name, tensorStatusName(st.status),
                  st.produced, st.remainingUses, st.hasHostCopy);
        }
        MemHandle h = allocateOrDie(t, allocBytes(out),
                                    graph_.tensor(out).name, out);
        bindGpu(out, h);
        st.status = TensorStatus::In;
        st.swapInReady = 0;
        st.produced = true;
        st.remainingUses = usesPerIteration_[out];
        notePhase(out, ObsPhase::In, t);
    }

    // (4) Kernel.
    Tick dur = cost_.opDuration(op, fast);
    if (faults_.enabled())
        dur = faults_.jitterKernel(dur);
    Tick end = compute_.enqueue(t, dur, opLabel(id, false),
                                obs::EventKind::Kernel, -1,
                                static_cast<std::int64_t>(id));
    Tick start = end - dur;
    currentOpEnd_ = end;
    stats_.kernelBusy += dur;
    clock_ = std::max(clock_, start);

    // (5) Fingerprints + weight versioning.
    for (TensorId out : op.outputs)
        produceFingerprint(out, op);
    if (op.category == OpCategory::Update) {
        for (TensorId in : op.inputs) {
            if (graph_.tensor(in).kind == TensorKind::Weight) {
                TensorState &wst = state(in);
                ++wst.weightVersion;
                wst.fingerprint = hashCombine(
                    nameHash_[in],
                    static_cast<std::uint64_t>(wst.weightVersion));
                wst.expectedFp = wst.fingerprint;
            }
        }
    }

    // (6) Access events: inputs stamped at kernel start, outputs at end.
    for (TensorId in : op.inputs)
        recordAccess(in, start, false, id);
    for (TensorId out : op.outputs)
        recordAccess(out, end, true, id);

    if (ws)
        mem_.freeAt(end, *ws);

    // (7) Refcounts; release tensors with no scheduled uses left.
    for (TensorId in : op.inputs)
        --state(in).pinCount;
    for (TensorId out : op.outputs)
        --state(out).pinCount;
    for (TensorId in : op.inputs) {
        TensorState &st = state(in);
        if (graph_.tensor(in).kind == TensorKind::Weight)
            continue;
        if (--st.remainingUses <= 0)
            retire(in, end);
    }
    for (TensorId out : op.outputs) {
        if (usesPerIteration_[out] == 0 &&
            graph_.tensor(out).kind != TensorKind::Weight)
            retire(out, end);
    }

    if (policy_)
        policy_->afterOp(*this, id, end);

    clock_ = std::max(clock_, end);
    currentOp_ = kInvalidOp;
}

void
Executor::recordAccess(TensorId id, Tick when, bool is_output, OpId op)
{
    TensorState &st = state(id);
    ++st.accessCount;
    if (replayArmed_) {
        // Iteration-relative tick: unsigned wrap when a kernel start
        // precedes stats_.begin is deterministic and shift-invariant.
        std::uint64_t h = iterAccessHash_;
        h = hashCombine(h, static_cast<std::uint64_t>(id));
        h = hashCombine(h, (static_cast<std::uint64_t>(st.accessCount) << 1) |
                               (is_output ? 1u : 0u));
        h = hashCombine(h, when - stats_.begin);
        h = hashCombine(h, static_cast<std::uint64_t>(op));
        iterAccessHash_ = h;
    }
    if (obs_.tracing()) {
        obs::TraceEvent tev;
        tev.ts = when;
        tev.track = obs::kTrackHost;
        tev.phase = obs::EventPhase::Instant;
        tev.kind = obs::EventKind::Access;
        tev.tensor = static_cast<std::int64_t>(id);
        tev.op = static_cast<std::int64_t>(op);
        tev.value = st.accessCount;
        tev.name = accessLabel(is_output);
        obs_.tracer.record(tev);
    }
    if (!policy_)
        return;
    AccessEvent ev;
    ev.tensor = id;
    ev.accessIndex = st.accessCount;
    ev.when = when;
    ev.isOutput = is_output;
    ev.op = op;
    policy_->onAccess(*this, ev);
}

// --- residency transitions ---

bool
Executor::swapOut(TensorId id, Tick ready, std::string_view label)
{
    TensorState &st = state(id);
    // Clean victim: a host copy staged earlier this iteration is still
    // current (tensors are write-once between productions), so the device
    // chunk is a replica and the writeback is elided — free it once `ready`
    // passes and any in-flight fill completes. Copying clean data back out
    // would also leave the D2H unordered against the swap-in that filled
    // the buffer when no access consumed it.
    if (st.hasHostCopy) {
        dropAt(id, std::max(ready, st.swapInReady));
        ++stats_.elidedWritebacks;
        obs_.metrics.add("swap.writeback_elided");
        noteOut(id);
        return true;
    }
    // Stage the pinned host destination before touching PCIe: staging
    // consumes no simulated time, and its failure must not abort the run.
    std::uint64_t bytes = allocBytes(id);
    st.hostHandle = hostStage(id, wireBytes(bytes));
    if (st.hostHandle == 0)
        return false;
    st.hasHostCopy = true;
    auto done = pcie_.tryTransfer(CopyDir::DeviceToHost, wireBytes(bytes),
                                  ready, tensorLabel(label, id),
                                  static_cast<std::int64_t>(id));
    if (!done) {
        // Retries exhausted: release the staging just reserved.
        mem_.host().deallocate(st.hostHandle);
        st.hostHandle = 0;
        st.hasHostCopy = false;
        return false;
    }
    mem_.freeAt(*done, unbindGpu(id));
    st.status = TensorStatus::SwappingOut;
    st.swapOutDone = *done;
    ++stats_.swapOutCount;
    stats_.swapOutBytes += bytes;
    noteOut(id);
    notePhase(id, ObsPhase::SwappingOut,
              pcie_.lastStart(CopyDir::DeviceToHost));
    notePhase(id, ObsPhase::Out, *done);
    return true;
}

Tick
Executor::swapIn(TensorId id, MemHandle chunk, Tick ready,
                 std::string_view label)
{
    TensorState &st = state(id);
    std::uint64_t bytes = allocBytes(id);
    Tick done = pcie_.transfer(CopyDir::HostToDevice, wireBytes(bytes),
                               ready, tensorLabel(label, id),
                               static_cast<std::int64_t>(id));
    bindGpu(id, chunk);
    st.status = TensorStatus::SwappingIn;
    st.swapInReady = done;
    ++stats_.swapInCount;
    stats_.swapInBytes += bytes;
    if (std::exchange(st.outWithHost, false))
        obs_.metrics.add("tensor.in_bytes", bytes);
    notePhase(id, ObsPhase::SwappingIn,
              pcie_.lastStart(CopyDir::HostToDevice));
    return done;
}

void
Executor::dropAt(TensorId id, Tick when)
{
    TensorState &st = state(id);
    mem_.freeAt(when, unbindGpu(id));
    // A tensor with a surviving host copy regenerates by swap-in; only
    // host-copy-less drops take the recomputation path.
    st.status = st.hasHostCopy ? TensorStatus::Out : TensorStatus::Recompute;
    notePhase(id, st.hasHostCopy ? ObsPhase::Out : ObsPhase::Dropped, when);
}

void
Executor::retire(TensorId id, Tick at)
{
    TensorState &st = state(id);
    if (st.gpuHandle) {
        // Data may still feed an in-flight D2H transfer, or an in-flight
        // H2D fill may still be writing the chunk; free at whichever is
        // latest.
        Tick when = std::max(at, st.status == TensorStatus::SwappingOut
                                     ? st.swapOutDone
                                     : at);
        mem_.freeAt(std::max(when, st.swapInReady), unbindGpu(id));
    }
    if (st.hasHostCopy) {
        if (std::exchange(st.outWithHost, false))
            obs_.metrics.add("tensor.retired_host_bytes", allocBytes(id));
        mem_.host().deallocate(st.hostHandle);
        st.hasHostCopy = false;
        st.hostHandle = 0;
    }
    closePhase(id, at);
    st.status = TensorStatus::Out;
    st.produced = false;
}

// --- observability helpers (pure observers: never touch simulated time) ---

namespace
{

const char *
phaseName(ObsPhase phase)
{
    switch (phase) {
      case ObsPhase::None: return "";
      case ObsPhase::In: return "IN";
      case ObsPhase::Out: return "OUT";
      case ObsPhase::Dropped: return "DROPPED";
      case ObsPhase::SwappingIn: return "SWAPPING_IN";
      case ObsPhase::SwappingOut: return "SWAPPING_OUT";
    }
    return "?";
}

} // namespace

obs::NameId
Executor::opLabel(OpId id, bool recompute)
{
    if (!obs_.tracing())
        return 0;
    if (labels_.op.empty())
        labels_.op.resize(graph_.numOps());
    obs::NameId &label = labels_.op[id][recompute ? 1 : 0];
    if (label == 0) {
        const std::string &name = graph_.op(id).name;
        label = obs_.tracer.intern(recompute ? "recompute:" + name : name);
    }
    return label;
}

obs::NameId
Executor::phaseLabel(TensorId id, ObsPhase phase)
{
    if (!obs_.tracing())
        return 0;
    if (labels_.phase.empty())
        labels_.phase.resize(graph_.numTensors());
    obs::NameId &label = labels_.phase[id][static_cast<std::size_t>(phase)];
    if (label == 0) {
        label = obs_.tracer.intern(graph_.tensor(id).name + ":" +
                                   phaseName(phase));
    }
    return label;
}

obs::NameId
Executor::accessLabel(bool is_output)
{
    if (!obs_.tracing())
        return 0;
    obs::NameId &label = is_output ? labels_.write : labels_.read;
    if (label == 0)
        label = obs_.tracer.intern(is_output ? "write" : "read");
    return label;
}

obs::NameId
Executor::tensorLabel(std::string_view prefix, TensorId id)
{
    if (!obs_.tracing())
        return 0;
    std::string label(prefix);
    label += graph_.tensor(id).name;
    return obs_.tracer.intern(label);
}

void
Executor::notePhase(TensorId id, ObsPhase phase, Tick at)
{
    if (!obs_.tracing())
        return;
    TensorState &st = state(id);
    // A phase can begin in the future (a transfer's completion time); the
    // successor must not open before it closed, or the async spans overlap.
    if (st.obsPhase != ObsPhase::None)
        at = std::max(at, st.obsPhaseAt);
    closePhase(id, at);
    st.obsPhase = phase;
    st.obsPhaseAt = at;
    obs_.tracer.spanBegin(obs::EventKind::Lifetime,
                          static_cast<std::int64_t>(id), at,
                          phaseLabel(id, phase), allocBytes(id));
}

void
Executor::closePhase(TensorId id, Tick at)
{
    if (!obs_.tracing())
        return;
    TensorState &st = state(id);
    if (st.obsPhase == ObsPhase::None)
        return;
    obs_.tracer.spanEnd(obs::EventKind::Lifetime,
                        static_cast<std::int64_t>(id),
                        std::max(at, st.obsPhaseAt),
                        phaseLabel(id, st.obsPhase));
    st.obsPhase = ObsPhase::None;
}

void
Executor::noteOut(TensorId id)
{
    TensorState &st = state(id);
    if (st.outWithHost)
        return;
    st.outWithHost = true;
    obs_.metrics.add("tensor.out_bytes", allocBytes(id));
}

void
Executor::feedIterationMetrics()
{
    if (!obs_.metricsOn())
        return;
    auto &m = obs_.metrics;
    auto u64 = [](auto v) { return static_cast<std::uint64_t>(v); };
    m.add("swap.out.bytes", stats_.swapOutBytes);
    m.add("swap.in.bytes", stats_.swapInBytes);
    m.add("swap.out.count", u64(stats_.swapOutCount));
    m.add("swap.in.count", u64(stats_.swapInCount));
    m.add("stall.input_ns", stats_.inputStall);
    m.add("stall.alloc_ns", stats_.allocStall);
    m.add("compute.kernel_ns", stats_.kernelBusy);
    m.add("compute.recompute_ns", stats_.recomputeBusy);
    m.add("recompute.tensors", u64(stats_.recomputedTensors));
    m.add("recompute.ops", u64(stats_.recomputeOps));
    m.add("drop.tensors", u64(stats_.droppedTensors));
    m.add("drop.bytes", stats_.droppedBytes);
    m.add("inplace.forwards", u64(stats_.inplaceForwards));
    m.add("kernel.fallbacks", u64(stats_.fallbackKernels));
    m.add("oom.evictions", u64(stats_.oomEvictions));
    m.add("prefetch.busy_ns", stats_.prefetchBusy);
    m.add("prefetch.stall_ns", stats_.prefetchStall);

    // Cumulative counters: add the growth since the last feed.
    auto grow = [&](const char *name, std::uint64_t now,
                    std::uint64_t &fed) {
        m.add(name, now - fed);
        fed = now;
    };
    const BfcStats &bfc = mem_.gpu().stats();
    grow("bfc.splits", bfc.splitCount, fed_.bfcSplits);
    grow("bfc.merges", bfc.mergeCount, fed_.bfcMerges);
    grow("bfc.failed_allocs", bfc.failedAllocs, fed_.bfcFailedAllocs);
    m.set("bfc.fragmentation", mem_.gpu().fragmentation());
    m.set("gpu.peak_bytes", static_cast<double>(stats_.peakGpuBytes));
    grow("host.failed_allocs", mem_.host().failedAllocs(),
         fed_.hostFailedAllocs);

    if (faults_.enabled()) {
        const faults::FaultStats &fs = faults_.stats();
        m.setCounter("fault.pcie.degraded_transfers", fs.degradedTransfers);
        m.setCounter("fault.kernel.jittered", fs.jitteredKernels);
        m.setCounter("fault.host.reject_count", fs.hostRejects);
        m.setCounter("fault.swap.failures", fs.swapAttemptFailures);
        m.setCounter("recovery.swap_retries", fs.swapRetries);
        m.setCounter("recovery.swap_forced", fs.swapForced);
        m.setCounter("recovery.drop_fallback_count", fs.dropFallbacks);
        m.setCounter("recovery.swap_skip_count", fs.swapSkips);
        m.setCounter("recovery.prefetch_miss_count", fs.prefetchMisses);
        m.setCounter("recovery.remeasure_count", fs.remeasures);
        m.setCounter("recovery.feedback_shift_count", fs.feedbackShifts);
    }

    double hidden = 1.0;
    if (stats_.prefetchBusy > 0) {
        hidden = 1.0 - static_cast<double>(stats_.prefetchStall) /
                           static_cast<double>(stats_.prefetchBusy);
        hidden = std::min(1.0, std::max(0.0, hidden));
    }
    m.set("prefetch.hidden_ratio", hidden);
    m.set("iter.duration_ns", static_cast<double>(stats_.duration()));
}

// --- capureplay ---

void
Executor::replayApply(const ReplayShift &shift)
{
    clock_ += shift.dt;
    hostClock_ += shift.dt;
    computeBarrier_ += shift.dt;
    compute_.replayShift(shift.dt, shift.computeBusy);
    pcie_.replayShift(shift.dt, shift.d2hBusy, shift.h2dBusy);
    mem_.shiftPendingFrees(shift.dt);
    ++iteration_;
}

void
Executor::replayBumpWeight(TensorId id, int bumps)
{
    if (bumps <= 0)
        return;
    TensorState &st = state(id);
    st.weightVersion += bumps;
    // Same recompute runOp's Update handling performs: the fingerprint
    // depends only on the final version, not on the bump-by-bump path.
    st.fingerprint = hashCombine(
        nameHash_[id], static_cast<std::uint64_t>(st.weightVersion));
    st.expectedFp = st.fingerprint;
}

// --- ExecContext queries ---

TensorStatus
Executor::status(TensorId id) const
{
    return effectiveStatus(state(id), clock_);
}

int
Executor::accessCount(TensorId id) const
{
    return state(id).accessCount;
}

bool
Executor::isPinned(TensorId id) const
{
    return state(id).pinCount > 0;
}

std::uint64_t
Executor::tensorBytes(TensorId id) const
{
    return allocBytes(id);
}

std::uint64_t
Executor::gpuCapacity() const
{
    return mem_.gpu().capacity();
}

std::uint64_t
Executor::hostCapacity() const
{
    return mem_.host().capacity();
}

bool
Executor::canAllocateNow(std::uint64_t bytes)
{
    return mem_.canAllocate(clock_, bytes);
}

bool
Executor::canRegenerateStably(TensorId id)
{
    // Mirror of recomputeTensor()'s plan DFS, but total: false instead of
    // panic on a dead end. A tensor counts as regenerable if a replay can
    // reach weights and durable host copies through recomputable ops,
    // treating `id` itself as absent; merely-resident feature maps do not
    // count, since they may be freed first.
    std::vector<TensorId> stack;
    stack.reserve(32);
    std::vector<bool> visited(graph_.numTensors(), false);
    stack.push_back(id);
    visited[id] = true;
    while (!stack.empty()) {
        TensorId tid = stack.back();
        stack.pop_back();
        const TensorState &st = state(tid);
        if (tid != id) {
            if (graph_.tensor(tid).kind == TensorKind::Weight)
                continue;
            // A host copy survives until its tensor's last scheduled use
            // (refcount death frees it). It is a durable replay source
            // only if that death comes no earlier than the last point at
            // which `id` could replay — its own last use.
            if (st.hasHostCopy && lastUsePos_[tid] >= lastUsePos_[id])
                continue;
        } else if (st.hasHostCopy) {
            return true; // regenerates by swap-in regardless of lineage
        }
        OpId prod = graph_.tensor(tid).producer;
        if (prod == kInvalidOp || !graph_.op(prod).recomputable)
            return false;
        for (TensorId in : graph_.op(prod).inputs) {
            if (!visited[in]) {
                visited[in] = true;
                stack.push_back(in);
            }
        }
    }
    return true;
}

std::vector<TensorId>
Executor::victimsForContiguous(std::uint64_t bytes)
{
    // Sliding window over the arena: the cheapest run of chunks (all free
    // or evictable) whose total size covers the request. Cost = evicted
    // bytes; of equally cheap windows the lowest-addressed wins. Chunks
    // owned by no tensor (workspaces, in-flight transfers), by weights, or
    // by pinned/non-resident tensors block a window. Chunks with an
    // in-flight deferred free count as zero-cost — the allocation retry
    // loop waits for their transfers anyway. One walk of the chunk list
    // reads everything: each chunk's owner tag mirrors the handle of the
    // tensor that owns it (bindGpu/unbindGpu).
    using Chunk = BfcAllocator::Chunk;
    auto blocks = [&](const Chunk &c) {
        if (c.free || c.pendingFree)
            return false;
        if (c.owner == kInvalidTensor ||
            graph_.tensor(c.owner).kind == TensorKind::Weight)
            return true;
        const TensorState &st = state(c.owner);
        return st.pinCount > 0 ||
               effectiveStatus(st, clock_) != TensorStatus::In;
    };
    // Inside a window every chunk passed blocks(), so the allocated ones
    // without a pending free are exactly its victims.
    auto evicts = [](const Chunk &c) { return !c.free && !c.pendingFree; };

    const BfcAllocator &gpu = mem_.gpu();
    std::uint64_t best_cost = ~0ull;
    auto best_lo = gpu.end();
    auto best_hi = gpu.end();
    auto lo = gpu.begin();
    std::uint64_t span = 0;
    std::uint64_t cost = 0;
    for (auto hi = gpu.begin(); hi != gpu.end(); ++hi) {
        if (blocks(*hi)) {
            lo = hi;
            ++lo;
            span = 0;
            cost = 0;
            continue;
        }
        span += hi->size;
        if (evicts(*hi))
            cost += hi->size;
        while (lo != hi && span - lo->size >= bytes) {
            span -= lo->size;
            if (evicts(*lo))
                cost -= lo->size;
            ++lo;
        }
        if (span >= bytes && cost < best_cost) {
            best_cost = cost;
            best_lo = lo;
            best_hi = hi;
            ++best_hi;
        }
    }
    std::vector<TensorId> best;
    for (auto it = best_lo; it != best_hi; ++it) {
        if (evicts(*it))
            best.push_back(it->owner);
    }
    return best;
}

Tick
Executor::swapTime(std::uint64_t bytes) const
{
    return pcie_.transferTime(wireBytes(bytes));
}

Tick
Executor::memStallSoFar() const
{
    return stats_.inputStall + stats_.allocStall;
}

// --- ExecContext actions ---

std::uint64_t
Executor::hostStage(TensorId id, std::uint64_t wire_bytes)
{
    if (faults_.enabled() && faults_.hostTransientFail()) {
        ++faults_.stats().hostRejects;
        if (obs_.tracing())
            faults_.noteFault(clock_,
                              "fault.host.transient:" +
                                  graph_.tensor(id).name,
                              static_cast<std::int64_t>(id), wire_bytes);
        obs_.metrics.add("fault.host.rejects");
        return 0;
    }
    std::uint64_t h = mem_.host().allocate(wire_bytes);
    if (h == 0) {
        if (faults_.enabled()) {
            ++faults_.stats().hostRejects;
            if (obs_.tracing())
                faults_.noteFault(clock_,
                                  "fault.host.exhausted:" +
                                      graph_.tensor(id).name,
                                  static_cast<std::int64_t>(id), wire_bytes);
        }
        obs_.metrics.add("fault.host.rejects");
    }
    return h;
}

void
Executor::swapToDropFallback(TensorId id)
{
    if (!state(id).hasHostCopy && !canRegenerateStably(id)) {
        // Nothing safe to do: the tensor stays resident; passive mode will
        // look for another victim.
        ++faults_.stats().swapSkips;
        obs_.tracer.instant(obs::kTrackRecovery, obs::EventKind::Recovery,
                            clock_, tensorLabel("recovery.swap-skipped:", id),
                            static_cast<std::int64_t>(id));
        obs_.metrics.add("recovery.swap_skipped");
        return;
    }
    ++faults_.stats().dropFallbacks;
    obs_.tracer.instant(obs::kTrackRecovery, obs::EventKind::Recovery,
                        clock_, tensorLabel("recovery.swap-to-drop:", id),
                        static_cast<std::int64_t>(id));
    obs_.metrics.add("recovery.drop_fallbacks");
    evictDrop(id);
}

void
Executor::evictSwapAsync(TensorId id)
{
    TensorState &st = state(id);
    if (effectiveStatus(st, clock_) != TensorStatus::In || !st.gpuHandle)
        return;
    if (graph_.tensor(id).kind == TensorKind::Weight)
        panic("policy tried to evict weight {}", graph_.tensor(id).name);
    // The evicting access's kernel must retire before the copy may start.
    Tick ready = std::max(clock_, currentOp_ != kInvalidOp ? currentOpEnd_
                                                           : clock_);
    if (!swapOut(id, ready, "swapout:"))
        swapToDropFallback(id);
}

Tick
Executor::evictSwapBlocking(TensorId id)
{
    evictSwapAsync(id);
    const TensorState &st = state(id);
    if (st.status == TensorStatus::SwappingOut) {
        computeBarrier_ = std::max(computeBarrier_, st.swapOutDone);
        obs_.tracer.instant(obs::kTrackHost, obs::EventKind::Sync, clock_,
                            tensorLabel("sync.blocking-swap:", id),
                            static_cast<std::int64_t>(id));
        obs_.metrics.add("swap.blocking_count");
    }
    return computeBarrier_;
}

bool
Executor::evictSwapSync(TensorId id)
{
    const TensorState &st = state(id);
    if (st.pinCount > 0 || graph_.tensor(id).kind == TensorKind::Weight ||
        effectiveStatus(st, clock_) != TensorStatus::In || !st.gpuHandle)
        return false;
    // The copy occupies the critical path from now; if it is declined,
    // the caller (passive mode) picks another disposal.
    if (!swapOut(id, clock_, "oom-swapout:"))
        return false;
    ++stats_.oomEvictions;
    return true;
}

void
Executor::evictDrop(TensorId id)
{
    TensorState &st = state(id);
    if (effectiveStatus(st, clock_) != TensorStatus::In || !st.gpuHandle)
        return;
    if (graph_.tensor(id).kind == TensorKind::Weight)
        panic("policy tried to drop weight {}", graph_.tensor(id).name);
    // Refuse drops that could never be regenerated: no producer, or a
    // non-recomputable producer (Source ops), with no host copy to fall
    // back on. Policies should not request these; the action stays safe
    // regardless.
    OpId producer = graph_.tensor(id).producer;
    if (!st.hasHostCopy &&
        (producer == kInvalidOp || !graph_.op(producer).recomputable)) {
        return;
    }
    // The chunk is free once the evicting access's kernel retires.
    dropAt(id, std::max(clock_, currentOp_ != kInvalidOp ? currentOpEnd_
                                                         : clock_));
    ++stats_.droppedTensors;
    stats_.droppedBytes += allocBytes(id);
    if (st.hasHostCopy)
        noteOut(id);
}

void
Executor::prefetchAsync(TensorId id)
{
    TensorState &st = state(id);
    TensorStatus s = effectiveStatus(st, clock_);
    // A trigger may fire while the swap-out is still draining; the fetch
    // then starts right after the host copy completes.
    Tick ready = clock_;
    if (s == TensorStatus::SwappingOut) {
        ready = std::max(ready, st.swapOutDone);
    } else if (s != TensorStatus::Out) {
        return; // already resident / being fetched / recompute-managed
    }
    if (!st.hasHostCopy)
        return;
    auto h = mem_.allocate(clock_, allocBytes(id));
    if (!h) {
        // Peak-memory window: degrade to on-demand at the back access
        // (passive-mode safety net).
        ++faults_.stats().prefetchMisses;
        obs_.metrics.add("prefetch.miss");
        obs_.tracer.instant(obs::kTrackRecovery, obs::EventKind::Recovery,
                            clock_, tensorLabel("recovery.prefetch-miss:", id),
                            static_cast<std::int64_t>(id));
        return;
    }
    Tick done = swapIn(id, *h, ready, "prefetch:");
    stats_.prefetchBusy += done - pcie_.lastStart(CopyDir::HostToDevice);
    obs_.metrics.add("prefetch.count");
}

} // namespace capu
