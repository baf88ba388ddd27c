/**
 * @file
 * train-long and train-observed: ResNet-152 at batch 400 under Capuchin.
 *
 * Both run whole sessions back to back: build the graph, construct the
 * Session, run the measured iteration 0, then guided iterations one
 * run(1) call at a time. Replay is off so every iteration executes.
 * train-long runs obs off, adds a standalone PolicyMaker::build on the
 * measured tracker and ends each session with a fork whose continuation
 * must match the original bit for bit. train-observed runs the same
 * session at ObsLevel::Full and follows it with the debugging chain:
 * profile, dynamic happens-before verify, plan lint and Chrome export.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <streambuf>

#include "analysis/happens_before.hh"
#include "analysis/lint_hooks.hh"
#include "bench_util.hh"
#include "host_probe.hh"
#include "core/capuchin_policy.hh"
#include "core/plan_io.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "obs/chrome_trace.hh"
#include "obs/event_adapter.hh"
#include "percentile.hh"
#include "prof/profile.hh"

namespace perfbench
{

namespace
{

using namespace capu;

constexpr ModelKind kModel = ModelKind::ResNet152;
constexpr std::int64_t kBatch = 400;
/** Guided iterations per session ("tens"); observed sessions run fewer so
 *  the default 1M-event ring holds the whole session. */
constexpr int kLongGuided = 40;
constexpr int kObservedGuided = 20;

/** Discards bytes, counting them: export cost without disk or RAM. */
class CountingBuf : public std::streambuf
{
  public:
    std::size_t bytes = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++bytes;
        return traits_type::not_eof(c);
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += static_cast<std::size_t>(n);
        return n;
    }
};

struct TrainSamples
{
    std::vector<double> setupS, buildMs, ctorMs, measuredMs, coldMs;
    std::vector<double> planBuildMs, forkMs, steadyMs, sessionRate;
    std::vector<double> analyzeMs, profMs, verifyMs, lintMs, exportMs;
    std::vector<double> profEventsPerS;
    /** Probe-scaled copies (host_probe.hh) for the end-to-end metrics. */
    std::vector<double> steadyNorm, rateNorm, coldNorm, analyzeNorm;

    // Deterministic per-session counts (identical in every session).
    double planItems = 0, planRevisions = 0, feedbackAdjustments = 0;
    double recomputeOpsPerIter = 0, measuredOomEvictions = 0;
    double bfcSplitsPerIter = 0, bfcMergesPerIter = 0, bfcFailedPerIter = 0;
    double fragmentation = 0, ticksPerIter = 0, swapBytesPerIter = 0;
    double opsPerIter = 0, eventsPerIter = 0, droppedPerIter = 0;
    double edges = 0;
    double registryPlanRevisions = 0;
};

/** Check iteration `index`'s simulated output against the fingerprints. */
bool
checkIteration(Fingerprints &fp, int index, const IterationStats &it)
{
    std::string base = "train.iter." + std::to_string(index);
    bool ok = fp.check(base + ".ticks",
                       static_cast<std::int64_t>(it.duration()));
    ok = fp.check(base + ".swap_out_bytes",
                  static_cast<std::uint64_t>(it.swapOutBytes)) && ok;
    return ok;
}

struct SessionPlan
{
    bool observed = false;
    int guided = kLongGuided;
    bool fork = false;
    bool standalonePlan = false;
    bool analytics = false;
};

/**
 * One full session. Returns false when the session had to stop early (an
 * OOM or a crash); every failure is also counted in `out`.
 */
bool
runSession(const Context &ctx, const SessionPlan &plan, Outcome &out,
           TrainSamples &s)
{
    Fingerprints &fp = *ctx.expected;
    Span session_span(Layer::Other, "train.session");
    ExecConfig cfg;
    cfg.obsLevel = plan.observed ? obs::ObsLevel::Full : obs::ObsLevel::Off;
    cfg.replay.enabled = false;
    cfg.seed = ctx.seed;

    std::int64_t t0 = nowNs();
    std::optional<Graph> graph;
    {
        Span span(Layer::Models, "buildModel");
        graph.emplace(buildModel(kModel, kBatch));
    }
    double build_ms = msSince(t0);
    auto policy = makeCapuchinPolicy();
    auto *capu = static_cast<CapuchinPolicy *>(policy.get());
    std::int64_t t1 = nowNs();
    std::optional<Session> session;
    {
        Span span(Layer::Exec, "Session::Session");
        session.emplace(std::move(*graph), cfg, std::move(policy));
    }
    double ctor_ms = msSince(t1);
    s.buildMs.push_back(build_ms);
    s.ctorMs.push_back(ctor_ms);
    s.setupS.push_back(scaleByProbe(build_ms + ctor_ms, out.probeMs) / 1e3);

    std::vector<IterationStats> iters;
    auto runOne = [&](const char *what, int index, double &wall_ms) {
        std::int64_t start = nowNs();
        SessionResult r;
        {
            Span span(Layer::Exec, what);
            r = session->run(1);
        }
        wall_ms = msSince(start);
        if (r.oom || r.iterations.size() != 1) {
            out.operation(false, strf("iteration %d: unexpected OOM", index));
            return false;
        }
        iters.push_back(r.iterations[0]);
        out.operation(checkIteration(fp, index, r.iterations[0]),
                      strf("iteration %d: simulated output differs", index));
        return true;
    };

    double measured_ms = 0;
    if (!runOne("Session::run/measured", 0, measured_ms))
        return false;
    s.measuredMs.push_back(measured_ms);
    Executor &exec = session->executor();
    s.measuredOomEvictions = iters[0].oomEvictions;

    if (plan.standalonePlan) {
        // The policy builds its first plan at the start of iteration 1;
        // this rebuilds it standalone from the measured tracker with the
        // policy's own arguments, so core's planning cost is isolated.
        CapuchinOptions defaults;
        std::int64_t start = nowNs();
        Plan standalone;
        {
            Span span(Layer::Core, "PolicyMaker::build");
            PolicyMaker maker(session->graph(), capu->tracker());
            auto target = static_cast<std::uint64_t>(
                static_cast<double>(capu->measuredEvictedBytes()) *
                defaults.savingMargin);
            standalone = maker.build(
                target, [&](TensorId id) { return exec.tensorBytes(id); },
                [&](std::uint64_t bytes) { return exec.swapTime(bytes); },
                exec.gpuCapacity());
        }
        s.planBuildMs.push_back(msSince(start));
        bool ok = fp.check("train.standalone_plan.digest",
                           hex64(planDigest(standalone)));
        ok = fp.check("train.standalone_plan.items",
                      static_cast<std::uint64_t>(standalone.items.size())) &&
             ok;
        out.operation(ok, "standalone plan differs");
    }

    double first_guided_ms = 0;
    std::vector<double> steady;
    std::uint64_t last_digest = 0;
    int revisions = 0;
    for (int i = 1; i <= plan.guided; ++i) {
        double wall = 0;
        if (!runOne("Session::run/guided", i, wall))
            return false;
        if (i == 1)
            first_guided_ms = wall;
        else
            steady.push_back(wall);
        std::uint64_t digest = planDigest(capu->plan());
        if (i > 1 && digest != last_digest)
            ++revisions;
        last_digest = digest;
    }
    s.coldMs.push_back(measured_ms + first_guided_ms);
    double steady_sum = 0;
    for (double v : steady)
        steady_sum += v;
    s.sessionRate.push_back(
        ratio(static_cast<double>(steady.size()), steady_sum / 1e3));
    s.steadyMs.insert(s.steadyMs.end(), steady.begin(), steady.end());

    // Simulated per-session counts; identical in every session.
    const int executed = 1 + plan.guided;
    const BfcStats &bfc = exec.memory().gpu().stats();
    s.bfcSplitsPerIter = static_cast<double>(bfc.splitCount) / executed;
    s.bfcMergesPerIter = static_cast<double>(bfc.mergeCount) / executed;
    s.bfcFailedPerIter = static_cast<double>(bfc.failedAllocs) / executed;
    s.fragmentation = exec.memory().gpu().fragmentation();
    s.planItems = static_cast<double>(capu->plan().items.size());
    s.planRevisions = revisions;
    s.feedbackAdjustments = capu->feedbackAdjustments();
    s.opsPerIter = static_cast<double>(exec.schedule().size());
    double recompute = 0, recompute_total = 0, ticks = 0, swap = 0;
    for (std::size_t i = 0; i < iters.size(); ++i) {
        recompute_total += iters[i].recomputeOps;
        if (i == 0)
            continue;
        recompute += iters[i].recomputeOps;
        ticks += static_cast<double>(iters[i].duration());
        swap += static_cast<double>(iters[i].swapOutBytes);
    }
    s.recomputeOpsPerIter = recompute / plan.guided;
    s.ticksPerIter = ticks / plan.guided;
    s.swapBytesPerIter = swap / plan.guided;

    if (plan.fork) {
        // A fork must continue bit-identically to its original.
        std::int64_t start = nowNs();
        std::optional<Session> child;
        {
            Span span(Layer::Exec, "Session::fork");
            child.emplace(session->fork());
        }
        s.forkMs.push_back(msSince(start));
        SessionResult a, b;
        {
            Span span(Layer::Exec, "Session::run/fork-continuation");
            a = child->run(1);
            b = session->run(1);
        }
        bool ok = !a.oom && !b.oom && a.iterations.size() == 1 &&
                  b.iterations.size() == 1;
        if (ok) {
            ok = checkIteration(fp, plan.guided + 1, a.iterations[0]);
            ok = checkIteration(fp, plan.guided + 1, b.iterations[0]) && ok;
        }
        out.operation(ok, "fork continuation differs from its original");
    }

    if (plan.analytics) {
        obs::Obs &o = exec.obs();
        const Graph &g = session->graph();
        std::int64_t start = nowNs();

        std::int64_t p0 = nowNs();
        prof::Profile profile;
        {
            Span span(Layer::Prof, "prof::buildProfile");
            profile = prof::buildProfile(o.tracer);
        }
        double prof_ms = msSince(p0);
        out.operation(profile.conservationError() == 0,
                      strf("profile conservation error %lld ticks",
                           static_cast<long long>(
                               profile.conservationError())));

        std::int64_t v0 = nowNs();
        std::vector<obs::TimelineRecord> timeline;
        {
            Span span(Layer::Obs, "obs::extractTimeline");
            timeline = obs::extractTimeline(o.tracer);
        }
        HbAnalysis hb;
        LintReport races, stamps;
        {
            Span span(Layer::Analysis, "happens-before verify");
            hb = buildTraceEventGraph(timeline);
            races = checkHappensBefore(hb, &g);
            stamps = checkTimestamps(hb, &g);
        }
        double verify_ms = msSince(v0);
        out.operation(races.diags.empty() && stamps.diags.empty(),
                      strf("verify: %zu race and %zu timestamp findings",
                           races.diags.size(), stamps.diags.size()));

        std::int64_t l0 = nowNs();
        LintReport lint;
        {
            Span span(Layer::Analysis, "runPlanLint");
            LintHookOptions hook;
            hook.panicOnError = false;
            hook.printFindings = false;
            lint = runPlanLint(capu->plan(), g, capu->tracker(), exec, hook,
                               "perfbench");
        }
        double lint_ms = msSince(l0);
        out.operation(lint.errorCount() == 0,
                      "plan lint: " + lint.summary());

        std::int64_t e0 = nowNs();
        CountingBuf sink;
        {
            Span span(Layer::Obs, "obs::writeChromeTrace");
            std::ostream os(&sink);
            obs::writeChromeTrace(os, o.tracer);
        }
        double export_ms = msSince(e0);
        out.operation(sink.bytes > 0, "empty Chrome trace");

        s.analyzeMs.push_back(msSince(start));
        s.profMs.push_back(prof_ms);
        s.verifyMs.push_back(verify_ms);
        s.lintMs.push_back(lint_ms);
        s.exportMs.push_back(export_ms);
        s.profEventsPerS.push_back(
            ratio(static_cast<double>(profile.events), prof_ms / 1e3));
        s.eventsPerIter =
            static_cast<double>(o.tracer.recorded()) / executed;
        s.droppedPerIter = static_cast<double>(o.tracer.dropped()) / executed;
        s.edges = static_cast<double>(hb.edges.size());
        s.registryPlanRevisions =
            static_cast<double>(o.metrics.counter("plan.revisions"));

        // The registry mirrors counts the benchmark also reads directly;
        // a disagreement means an instrumentation point drifted.
        const obs::MetricsRegistry &reg = o.metrics;
        bool ok = reg.counter("bfc.splits") == bfc.splitCount &&
                  reg.counter("bfc.merges") == bfc.mergeCount &&
                  reg.counter("bfc.failed_allocs") == bfc.failedAllocs &&
                  reg.counter("recompute.ops") ==
                      static_cast<std::uint64_t>(recompute_total) &&
                  reg.counter("feedback.adjustments") ==
                      static_cast<std::uint64_t>(
                          capu->feedbackAdjustments()) &&
                  reg.counter("capu.obs.trace_dropped") ==
                      o.tracer.dropped();
        out.operation(ok, "metrics registry disagrees with direct counts");
    }
    return true;
}

Outcome
runTrain(const Context &ctx, bool observed)
{
    Outcome out;
    TrainSamples s;
    SessionPlan plan;
    plan.observed = observed;
    plan.guided = observed ? kObservedGuided : kLongGuided;
    plan.fork = !observed;
    plan.standalonePlan = !observed;
    plan.analytics = observed;

    // train-observed's obs.overhead_x needs the same session at obs off.
    double reference_guided_ms = 0;
    if (observed) {
        TrainSamples ref;
        SessionPlan off = plan;
        off.observed = false;
        off.analytics = false;
        if (runSession(ctx, off, out, ref))
            reference_guided_ms = nearestRank(ref.steadyMs, 50).value;
    }

    Budget budget(ctx.seconds);
    const std::size_t need = samplesToResolve(90);
    int sessions = 0;
    while (budget.more(s.steadyMs.size() >= need && sessions >= 3)) {
        std::size_t first = s.steadyMs.size();
        if (!runSession(ctx, plan, out, s))
            break;
        // Scale this session's times by probes taken right after it.
        std::vector<double> probes;
        sampleHostProbe(probes);
        out.probeMs.insert(out.probeMs.end(), probes.begin(), probes.end());
        double f = hostSpeedFactor(probes);
        for (std::size_t i = first; i < s.steadyMs.size(); ++i)
            s.steadyNorm.push_back(s.steadyMs[i] * f);
        s.rateNorm.push_back(s.sessionRate.back() / f);
        s.coldNorm.push_back(s.coldMs.back() * f);
        if (observed)
            s.analyzeNorm.push_back(s.analyzeMs.back() * f);
        ++sessions;
    }
    double wall_s = budget.elapsed();

    Percentile p50 = nearestRank(s.steadyMs, 50);
    Percentile p90 = nearestRank(s.steadyMs, 90);
    double rate = median(s.sessionRate);
    double secondary = observed ? median(s.analyzeMs) : median(s.coldMs);
    Percentile p50_norm = nearestRank(s.steadyNorm, 50);
    out.unitMedianMs = p50.value;

    auto &m = out.metrics;
    m["setup_s"] = median(s.setupS);
    m["units_per_s"] = median(s.rateNorm);
    m["unit_p50_ms"] = p50_norm.value;
    m["secondary_ms"] = observed ? median(s.analyzeNorm) : median(s.coldNorm);
    m["peak_rss_mb"] = peakRssMb();

    m["models.build_ms"] = median(s.buildMs);
    m["models.builds"] = 1;
    m["exec.session_ctor_ms"] = median(s.ctorMs);
    m["exec.measured_iter_ms"] = median(s.measuredMs);
    m["exec.guided_iter_ms"] = p50.value;
    m["exec.steps_per_s"] = ratio(s.opsPerIter, p50.value / 1e3);
    m["exec.oom_evictions"] = s.measuredOomEvictions;
    m["exec.fork_ms"] = median(s.forkMs);
    m["core.plan_build_ms"] = median(s.planBuildMs);
    m["core.plan_items"] = s.planItems;
    m["core.plan_revisions"] = s.planRevisions;
    m["core.feedback_adjustments"] = s.feedbackAdjustments;
    m["memory.bfc_splits"] = s.bfcSplitsPerIter;
    m["memory.bfc_merges"] = s.bfcMergesPerIter;
    m["memory.bfc_failed_allocs"] = s.bfcFailedPerIter;
    m["memory.fragmentation"] = s.fragmentation;
    m["exec.recompute_ops"] = s.recomputeOpsPerIter;
    m["sim.iter_ticks"] = s.ticksPerIter;
    m["sim.swap_bytes"] = s.swapBytesPerIter;
    if (observed) {
        m["obs.events"] = s.eventsPerIter;
        m["obs.dropped"] = s.droppedPerIter;
        m["obs.overhead_x"] = ratio(p50.value, reference_guided_ms);
        m["obs.export_ms"] = median(s.exportMs);
        m["prof.build_ms"] = median(s.profMs);
        m["prof.events_per_s"] = median(s.profEventsPerS);
        m["analysis.verify_ms"] = median(s.verifyMs);
        m["analysis.edges"] = s.edges;
        m["analysis.lint_ms"] = median(s.lintMs);
    }

    const char *name = observed ? "train-observed" : "train-long";
    out.line(strf("%s: ResNet-152@400 Capuchin, obs %s, replay off, %d "
                  "guided iterations per session, %d sessions in %.2f s",
                  name, observed ? "full" : "off", plan.guided, sessions,
                  wall_s));
    out.line(strf("  iters_per_s %.4f 1/s (median of %d sessions, "
                  "guided iterations 2..%d)",
                  rate, sessions, plan.guided));
    out.line("  guided iteration " + describe(p50, "ms") + "; " +
             describe(p90, "ms"));
    out.line(strf("  setup %.3f ms probe-scaled (raw build %.3f + ctor %.3f, "
                  "medians), "
                  "measured iteration %.2f ms, cold start %.2f ms",
                  median(s.setupS) * 1e3, median(s.buildMs),
                  median(s.ctorMs), median(s.measuredMs),
                  median(s.coldMs)));
    if (observed) {
        out.line(strf("  analyze_s %.4f s (median of %zu: profile %.1f ms, "
                      "verify %.1f ms, lint %.1f ms, export %.1f ms)",
                      secondary / 1e3, s.analyzeMs.size(), median(s.profMs),
                      median(s.verifyMs), median(s.lintMs),
                      median(s.exportMs)));
        out.line(strf("  obs.overhead_x %.3f = full %.3f ms / off %.3f ms "
                      "per guided iteration",
                      ratio(p50.value, reference_guided_ms), p50.value,
                      reference_guided_ms));
        out.line(strf("  registry plan.revisions %.0f; plan digest changed "
                      "after %.0f guided iterations",
                      s.registryPlanRevisions, s.planRevisions));
    } else {
        out.line(strf("  standalone PolicyMaker::build %.2f ms for %.0f "
                      "items; fork %.3f ms",
                      median(s.planBuildMs), s.planItems,
                      median(s.forkMs)));
    }
    return out;
}

} // namespace

Outcome
runTrainLong(const Context &ctx)
{
    return runTrain(ctx, false);
}

Outcome
runTrainObserved(const Context &ctx)
{
    return runTrain(ctx, true);
}

} // namespace perfbench
