#include "exec/session.hh"

#include <algorithm>
#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <utility>

#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace capu
{

double
SessionResult::steadyThroughput(std::int64_t batch, int skip) const
{
    Tick ticks = steadyIterationTicks(skip);
    if (ticks == 0)
        return 0;
    return static_cast<double>(batch) / ticksToSec(ticks);
}

Tick
SessionResult::steadyIterationTicks(int skip) const
{
    if (iterations.empty())
        return 0;
    std::size_t first = std::min<std::size_t>(skip, iterations.size() - 1);
    Tick total = 0;
    std::size_t n = 0;
    for (std::size_t i = first; i < iterations.size(); ++i) {
        total += iterations[i].duration();
        ++n;
    }
    return n == 0 ? 0 : total / n;
}

const IterationStats &
SessionResult::last() const
{
    if (iterations.empty())
        panic("no iterations recorded");
    return iterations.back();
}

Session::Session(Graph graph, ExecConfig config,
                 std::unique_ptr<MemoryPolicy> policy)
    : graph_(std::make_shared<const Graph>(std::move(graph))),
      config_(std::move(config)), policy_(std::move(policy))
{
    exec_ = std::make_unique<Executor>(*graph_, config_, policy_.get());
    replay_ = std::make_unique<ReplayEngine>(*exec_, policy_.get());
}

Session::Session(const Session &other, std::unique_ptr<MemoryPolicy> policy)
    : graph_(other.graph_), config_(other.config_),
      policy_(std::move(policy))
{
    exec_ = std::make_unique<Executor>(*other.exec_, *graph_,
                                       policy_.get());
    replay_ = std::make_unique<ReplayEngine>(*other.replay_, *exec_,
                                             policy_.get());
}

Session
Session::fork() const
{
    std::unique_ptr<MemoryPolicy> cloned;
    if (policy_) {
        cloned = policy_->clone();
        if (!cloned)
            panic("policy '{}' does not implement clone(); cannot fork",
                  policy_->name());
    }
    return Session(*this, std::move(cloned));
}

SessionResult
Session::run(int iterations)
{
    SessionResult result;
    result.graphStats = graph_->stats();
    result.iterations.reserve(static_cast<std::size_t>(
        std::max(iterations, 0)));
    ReplayEngine &replay = *replay_;
    const bool dynamic = graph_->dynamic();
    auto variantAt = [this](int iter) -> std::size_t {
        if (config_.variantSchedule.empty())
            return 0;
        return config_.variantSchedule[static_cast<std::size_t>(iter) %
                                       config_.variantSchedule.size()];
    };
    try {
        if (!exec_->setupDone())
            exec_->setup();
        int completed = 0;
        int aborts = 0;
        while (completed < iterations) {
            // Select the upcoming shape class before consulting the replay
            // engine: both replay arming and policy stability are per
            // class (capudrift).
            if (dynamic)
                exec_->setActiveVariant(variantAt(exec_->iteration()));
            if (replay.canReplay()) {
                result.iterations.push_back(replay.synthesize());
                ++completed;
                continue;
            }
            try {
                result.iterations.push_back(exec_->runIteration());
                replay.observe(result.iterations.back());
                ++completed;
            } catch (const OomError &e) {
                // Give the policy one chance per abort to learn from the
                // partial iteration and retry (bounded; Capuchin's
                // iterative refinement uses this).
                if (!policy_ || aborts >= kMaxIterationAborts ||
                    !policy_->onIterationAbort(*exec_)) {
                    throw;
                }
                ++aborts;
                exec_->abortIteration();
                replay.noteAbort();
            }
        }
    } catch (const OomError &e) {
        result.oom = true;
        result.oomMessage = e.what();
        result.oomRequestedBytes = e.requestedBytes;
        result.oomContext = e.context;
    }
    result.replay = replay.summary();
    return result;
}

std::string
SessionResult::postMortem() const
{
    if (!oom)
        return "";
    return oomContext.describe(oomRequestedBytes);
}

namespace
{

/**
 * Heaviest shape class of a dynamic graph: the variant whose ops produce
 * the most non-weight bytes per iteration. Used to pin max-batch probe
 * sessions to the worst case instead of cycling the whole schedule.
 */
std::size_t
worstCaseVariant(const Graph &g)
{
    std::size_t worst = 0;
    std::uint64_t worst_bytes = 0;
    for (std::size_t v = 0; v < g.variants().size(); ++v) {
        std::uint64_t bytes = 0;
        for (OpId id : g.variants()[v].ops) {
            for (TensorId out : g.op(id).outputs) {
                if (g.tensor(out).kind != TensorKind::Weight)
                    bytes += g.tensor(out).bytes;
            }
        }
        if (bytes > worst_bytes) {
            worst_bytes = bytes;
            worst = v;
        }
    }
    return worst;
}

} // namespace

std::int64_t
findMaxBatch(const GraphBuilderFn &builder,
             const PolicyFactoryFn &make_policy, const ExecConfig &config,
             int iterations, std::int64_t lo, std::int64_t hi,
             unsigned jobs, MaxBatchStats *stats)
{
    // Probe sessions run with steady-state replay armed: once a probe's
    // iterations stabilize the remainder are synthesized, which cannot
    // change the OOM verdict (replay is bit-identity-audited, and OOM
    // always strikes during executed iterations) but makes long
    // feasibility horizons cheap. Faulty configs disarm replay inside
    // the executor, so this is a no-op under chaos testing.
    ExecConfig probe_config = config;
    probe_config.replay.enabled = true;
    std::atomic<bool> saw_dynamic{false};
    std::atomic<int> sessions_run{0};
    // One probe = one private session over a private graph: a pure,
    // thread-safe function of the batch, runnable on any worker.
    auto probeOnce = [&](std::int64_t batch) {
        Graph g = builder(batch);
        ExecConfig pc = probe_config;
        if (g.dynamic()) {
            // Dynamic workload: probe the heaviest shape class only —
            // conservative on footprint and far cheaper than cycling the
            // schedule. The winner is re-validated under the true
            // schedule below.
            saw_dynamic.store(true, std::memory_order_relaxed);
            pc.variantSchedule = {worstCaseVariant(g)};
        }
        Session session(std::move(g), pc, make_policy());
        sessions_run.fetch_add(1, std::memory_order_relaxed);
        return !session.run(iterations).oom;
    };

    // Sessions are expensive; robust() re-probes batch - step and the
    // bisection revisits midpoints, so feasibility is memoized per batch.
    //
    // Determinism under speculation (jobs > 1): `memo` is *serial-
    // visible* — it gains an entry exactly when the serial decision
    // sequence calls feasible(), never when a speculative probe merely
    // completes. robust()'s witness scan walks memo, so warming extra
    // batches in `warm` cannot conjure a witness the serial search would
    // not have had: speculation changes where a result is computed, never
    // which results the decisions see. feasible(b) is a pure function of
    // b, so the values are order-independent by construction.
    std::map<std::int64_t, bool> memo;
    std::map<std::int64_t, std::shared_future<bool>> warm;
    int served_from_warm = 0;
    const bool parallel = jobs > 1;
    std::unique_ptr<ThreadPool> pool;
    if (parallel)
        pool = std::make_unique<ThreadPool>(jobs);
    auto speculate = [&](std::int64_t batch) {
        if (!parallel || batch < lo || batch > hi)
            return;
        if (memo.count(batch) != 0 || warm.count(batch) != 0)
            return;
        warm.emplace(batch,
                     pool->submit([&probeOnce, batch] {
                             return probeOnce(batch);
                         }).share());
    };
    auto feasible = [&](std::int64_t batch) {
        auto it = memo.find(batch);
        if (it != memo.end())
            return it->second;
        bool ok;
        auto w = warm.find(batch);
        if (w != warm.end()) {
            ok = w->second.get();
            ++served_from_warm;
        } else {
            ok = probeOnce(batch);
        }
        memo.emplace(batch, ok);
        return ok;
    };
    // Fragmentation makes raw feasibility locally non-monotone (batch b
    // can fail while b+20 happens to tile the arena); a batch only counts
    // if a slightly smaller one also works, which suppresses lucky
    // spikes. Any already-memoized feasible batch inside the step window
    // serves as that witness, so the clustered probes of a converging
    // bisection rarely pay for a second session.
    auto robust = [&](std::int64_t batch) {
        if (!feasible(batch))
            return false;
        std::int64_t step = std::max<std::int64_t>(1, batch / 32);
        if (batch - step < lo)
            return true;
        for (auto it = memo.lower_bound(batch - step);
             it != memo.end() && it->first < batch; ++it) {
            if (it->second)
                return true;
        }
        return feasible(batch - step);
    };
    auto finish = [&](std::int64_t answer, int extra_probes) {
        // The pool's destructor runs every queued probe: join it first, so
        // `probes` counts the sessions the search actually ran.
        pool.reset();
        if (stats) {
            stats->probes =
                sessions_run.load(std::memory_order_relaxed) + extra_probes;
            stats->speculated = static_cast<int>(warm.size());
            stats->servedFromWarm = served_from_warm;
            stats->wasted =
                static_cast<int>(warm.size()) - served_from_warm;
            stats->jobs = std::max(jobs, 1u);
        }
        return answer;
    };

    // The gallop ladder lo+1, lo+2, lo+4, ... is fully predictable, so a
    // sliding window of `jobs` upcoming rungs is warmed ahead of the
    // serial cursor (the probes beyond the first infeasible rung are the
    // price of speculation — wasted work, never a changed decision).
    std::vector<std::int64_t> ladder;
    for (std::int64_t gap = 1;; gap *= 2) {
        std::int64_t probe = std::min(lo + gap, hi);
        if (ladder.empty() || ladder.back() != probe)
            ladder.push_back(probe);
        if (probe == hi)
            break;
    }
    std::size_t cursor = 0;
    auto topUpLadder = [&] {
        for (std::size_t j = cursor;
             j < ladder.size() && j < cursor + jobs; ++j)
            speculate(ladder[j]);
    };
    if (parallel)
        topUpLadder();

    if (!feasible(lo))
        return finish(0, 0);
    // Gallop up from lo with doubling strides: simulation cost grows with
    // batch size, so bracketing the boundary with cheap small-batch
    // sessions beats opening the search with a hi-sized run. The gallop
    // trusts single probes; the bracket anchor is re-qualified below.
    std::int64_t good = lo;
    std::int64_t bad = hi + 1;
    for (; cursor < ladder.size(); ++cursor) {
        if (parallel)
            topUpLadder();
        std::int64_t probe = ladder[cursor];
        if (!feasible(probe)) {
            bad = probe;
            break;
        }
        good = probe;
        if (probe == hi)
            break;
    }
    // Demote a lucky-spike anchor before bisecting (at most one extra
    // session: feasible(good) is already memoized).
    speculate(good - std::max<std::int64_t>(1, good / 32));
    if (good > lo && !robust(good)) {
        bad = good;
        good = lo;
    }
    if (good != hi) {
        // Invariant: good robust-feasible (or lo), bad considered
        // infeasible.
        while (good + 1 < bad) {
            std::int64_t mid = good + (bad - good) / 2;
            if (parallel) {
                // Warm the next few levels of the bisection tree: both
                // children of every speculated node are candidates, so
                // 2^depth - 1 probes cover `depth` future decisions no
                // matter which way each one goes.
                int depth = 1;
                for (unsigned cap = 2; cap <= jobs; cap *= 2)
                    ++depth;
                std::function<void(std::int64_t, std::int64_t, int)> warm_tree =
                    [&](std::int64_t g, std::int64_t b, int d) {
                        if (d == 0 || g + 1 >= b)
                            return;
                        std::int64_t m = g + (b - g) / 2;
                        speculate(m);
                        warm_tree(g, m, d - 1);
                        warm_tree(m, b, d - 1);
                    };
                warm_tree(good, bad, depth);
                // robust(mid)'s fallback witness, in case the memoized
                // window misses.
                speculate(mid - std::max<std::int64_t>(1, mid / 32));
            }
            if (robust(mid))
                good = mid;
            else
                bad = mid;
        }
    }
    int extra_probes = 0;
    if (saw_dynamic.load(std::memory_order_relaxed) && good > 0) {
        // Worst-class probes are conservative on footprint but not on
        // fragmentation: interleaving shape classes lays the arena out
        // differently. Re-validate the witness under the caller's true
        // schedule (covering at least one full cycle so every class runs)
        // and walk the answer down if it fails.
        int horizon = std::max(
            iterations,
            static_cast<int>(config.variantSchedule.size()) + 2);
        std::map<std::int64_t, bool> memo_true;
        auto feasible_true = [&](std::int64_t batch) {
            auto it = memo_true.find(batch);
            if (it != memo_true.end())
                return it->second;
            Session session(builder(batch), probe_config, make_policy());
            ++extra_probes;
            bool ok = !session.run(horizon).oom;
            memo_true.emplace(batch, ok);
            return ok;
        };
        if (!feasible_true(good)) {
            std::int64_t tbad = good;
            std::int64_t tgood = feasible_true(lo) ? lo : 0;
            while (tgood > 0 && tgood + 1 < tbad) {
                std::int64_t mid = tgood + (tbad - tgood) / 2;
                if (feasible_true(mid))
                    tgood = mid;
                else
                    tbad = mid;
            }
            good = tgood;
        }
    }
    return finish(good, extra_probes);
}

} // namespace capu
