/**
 * @file
 * Training session: owns graph + executor + policy, runs N iterations.
 *
 * A Session is the library's top-level entry point (see examples/). It also
 * provides the max-batch-size search used by the Table 2 / Table 3
 * reproductions: the largest batch for which training completes without
 * OomError.
 *
 * capufork: a mid-run session is *forkable*. Every simulated component is
 * value-semantic (clocks, streams, allocator layout, pending frees, tensor
 * residency, policy plans, replay templates), so `fork()` deep-copies the
 * live machine in O(live state) — the immutable Graph is shared, never
 * re-measured — and the fork continues bit-identically to the original:
 * running k iterations, forking, and running n-k more on the fork yields
 * exactly the stats/digests/traces of a straight n-iteration run.
 * `fork()` is const and only reads, so parallel searches fork many
 * what-if runs from one shared prefix at once, and `speculate()` races K
 * policy variants from the current state and picks the winner
 * deterministically.
 */

#ifndef CAPU_EXEC_SESSION_HH
#define CAPU_EXEC_SESSION_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/executor.hh"
#include "exec/replay.hh"
#include "graph/graph.hh"

namespace capu
{

struct SessionResult
{
    bool oom = false;
    std::string oomMessage;
    std::uint64_t oomRequestedBytes = 0;
    OomContext oomContext;
    std::vector<IterationStats> iterations;
    GraphStats graphStats;
    /** capureplay accounting (all-executed when replay is off). Counts are
     *  cumulative over the session's lifetime, so a continued or forked
     *  session reports the totals including its prefix. */
    ReplaySummary replay;

    /** Multi-line OOM diagnosis (empty when the run completed). */
    std::string postMortem() const;

    /**
     * Mean images(samples)/sec over iterations after `skip` warm-up
     * iterations (the paper measures once the policy is stable).
     */
    double steadyThroughput(std::int64_t batch, int skip = 2) const;

    /** Mean iteration duration after warm-up. */
    Tick steadyIterationTicks(int skip = 2) const;

    const IterationStats &last() const;
};

using PolicyFactoryFn = std::function<std::unique_ptr<MemoryPolicy>()>;

/** One what-if candidate of Session::speculate(). */
struct SpeculateCandidate
{
    std::string policyName;
    SessionResult result;
    /** Mean post-warm-up iteration duration; the ranking key. */
    Tick steadyTicks = 0;
};

/** Outcome of Session::speculate(): all candidates plus the winner. */
struct SpeculateResult
{
    std::size_t winner = 0;
    std::vector<SpeculateCandidate> candidates;
};

class Session
{
  public:
    /** Upper bound on policy-requested iteration retries per run(). */
    static constexpr int kMaxIterationAborts = 6;

    Session(Graph graph, ExecConfig config,
            std::unique_ptr<MemoryPolicy> policy);

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;

    /**
     * Run `iterations` training iterations. On OomError the result reports
     * oom=true and retains the iterations that completed. May be called
     * repeatedly: a later call continues from the machine state the
     * previous one left behind, so run(k) followed by run(n-k) is
     * bit-identical to run(n) — the invariant fork determinism builds on.
     */
    SessionResult run(int iterations);

    /**
     * Deep-copy this session mid-run (capufork). The fork owns a clone of
     * the policy (with all learned state), a copy of the executor's full
     * machine state, and a copy of the replay engine's steady templates;
     * only the immutable Graph is shared. Running the fork and the
     * original produces bit-identical results. Panics if the policy does
     * not implement clone().
     */
    Session fork() const;

    /**
     * Fork, but continue under `policy` instead: the replacement starts
     * fresh (attached, un-measured) on this session's machine state, and
     * steady-state replay re-observes from scratch since the old policy's
     * templates do not describe the new policy's decisions.
     */
    Session fork(std::unique_ptr<MemoryPolicy> policy) const;

    /**
     * What-if search (capufork): fork this session once per variant, run
     * each fork `iterations` further iterations, and rank them by steady
     * iteration time (OOM ranks last; ties break toward the lower index).
     * With jobs > 1 the variants run concurrently on a work-stealing pool;
     * the winner is decided only after every variant finishes, from
     * simulated ticks, so the outcome is identical at any thread count.
     * The session itself is not advanced.
     */
    SpeculateResult speculate(const std::vector<PolicyFactoryFn> &variants,
                              int iterations, unsigned jobs = 1) const;

    Executor &executor() { return *exec_; }
    MemoryPolicy *policy() { return policy_.get(); }
    const Graph &graph() const { return *graph_; }

  private:
    /** Rebinding deep copy: shared graph, supplied policy. */
    Session(const Session &other, std::unique_ptr<MemoryPolicy> policy);

    /** Graph is immutable once built; forks share it (never re-measured). */
    std::shared_ptr<const Graph> graph_;
    ExecConfig config_;
    std::unique_ptr<MemoryPolicy> policy_;
    std::unique_ptr<Executor> exec_;
    /**
     * Persistent across run() calls (and copied on fork) so steady-state
     * synthesis continues seamlessly instead of re-observing per call.
     */
    std::unique_ptr<ReplayEngine> replay_;
};

using GraphBuilderFn = std::function<Graph(std::int64_t)>;

/** Probe accounting for findMaxBatch (filled when a caller asks). */
struct MaxBatchStats
{
    /** Probe sessions actually run (serial + speculative). */
    int probes = 0;
    /** Speculative probes submitted to the worker pool. */
    int speculated = 0;
    /** Speculative results the serial decision sequence consumed. */
    int servedFromWarm = 0;
    /** Speculative probes whose result was never consulted. */
    int wasted = 0;
    unsigned jobs = 1;
};

/**
 * Largest batch size in [lo, hi] that trains `iterations` iterations
 * without OOM. Returns 0 if even `lo` fails.
 *
 * Probe-efficient: per-batch feasibility is memoized (the robustness
 * check and bisection midpoints revisit batches), and the search gallops
 * up from `lo` with doubling strides before bisecting — cheap small-batch
 * sessions bracket the boundary instead of opening with a `hi`-sized run.
 *
 * With jobs > 1 upcoming probes are *speculated* on a worker pool while
 * the serial decision sequence consumes their results in its original
 * order: gallop points are fully predictable, and bisection midpoints are
 * warmed a few tree levels deep. The decision sequence only ever reads
 * memo entries it inserted itself, so the answer is bit-identical to the
 * serial search at any job count — speculation can only waste probes,
 * never change one. `builder` and `make_policy` are then invoked from
 * worker threads and must be thread-safe (pure functions of the batch).
 */
std::int64_t findMaxBatch(const GraphBuilderFn &builder,
                          const PolicyFactoryFn &make_policy,
                          const ExecConfig &config, int iterations = 3,
                          std::int64_t lo = 1, std::int64_t hi = 4096,
                          unsigned jobs = 1, MaxBatchStats *stats = nullptr);

} // namespace capu

#endif // CAPU_EXEC_SESSION_HH
