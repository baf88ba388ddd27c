/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation (§6) and prints paper-reported values next to the measured
 * ones where the paper gives numbers. Absolute throughputs come from a
 * simulator, so the *shape* — orderings, ratios, crossovers — is the
 * reproduction target (see EXPERIMENTS.md).
 */

#ifndef CAPU_BENCH_COMMON_HH
#define CAPU_BENCH_COMMON_HH

#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/noop_policy.hh"
#include "policy/vdnn_policy.hh"
#include "stats/table.hh"
#include "stats/timeline.hh"
#include "support/logging.hh"
#include "support/thread_pool.hh"

namespace capu::bench
{

/** The comparison systems of §6.1. */
enum class System
{
    TfOri,
    Vdnn,
    OpenAiM,
    OpenAiS,
    Capuchin,
};

inline const char *
systemName(System s)
{
    switch (s) {
      case System::TfOri: return "TF-ori";
      case System::Vdnn: return "vDNN";
      case System::OpenAiM: return "OpenAI-M";
      case System::OpenAiS: return "OpenAI-S";
      case System::Capuchin: return "Capuchin";
    }
    return "?";
}

inline std::unique_ptr<MemoryPolicy>
makePolicy(System s, CapuchinOptions capu_opts = {})
{
    switch (s) {
      case System::TfOri: return makeNoOpPolicy();
      case System::Vdnn: return makeVdnnPolicy();
      case System::OpenAiM:
        return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Memory);
      case System::OpenAiS:
        return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Speed);
      case System::Capuchin: return makeCapuchinPolicy(capu_opts);
    }
    return nullptr;
}

/** Throughput (samples/s) at steady state; 0 when the run OOMs. */
inline double
steadySpeed(ModelKind kind, std::int64_t batch, System sys,
            const ExecConfig &cfg = {}, int iterations = 12, int skip = 6,
            CapuchinOptions capu_opts = {})
{
    Session session(buildModel(kind, batch), cfg,
                    makePolicy(sys, capu_opts));
    auto r = session.run(iterations);
    if (r.oom)
        return 0.0;
    return r.steadyThroughput(batch, skip);
}

/** findMaxBatch over the zoo with the standard P100 config. */
inline std::int64_t
maxBatch(ModelKind kind, System sys, const ExecConfig &cfg = {})
{
    return findMaxBatch(
        [kind](std::int64_t b) { return buildModel(kind, b); },
        [sys] { return makePolicy(sys); }, cfg, 3, 1, 4096);
}

/** Host wall clock in milliseconds, for reporting sweep durations. */
inline double
wallMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Worker count for bench sweeps: the CAPU_BENCH_THREADS environment
 * variable overrides the hardware default (set it to 1 to force a
 * serial sweep, e.g. when bisecting a single cell); the pool caps it at
 * the hardware thread count.
 */
inline unsigned
benchThreads()
{
    if (const char *env = std::getenv("CAPU_BENCH_THREADS")) {
        long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return ThreadPool::defaultThreads();
}

/**
 * Evaluate job(0) .. job(n-1) across a worker pool and return the
 * results in index order. Each job owns its Session and Graph — cells
 * share no mutable state — so parallelism reorders only wall-clock
 * completion, never a result: the printed tables are identical at any
 * thread count, including CAPU_BENCH_THREADS=1 (fully serial).
 */
template <typename Job>
auto
sweepParallel(std::size_t n, Job job, unsigned threads)
    -> std::vector<decltype(job(std::size_t{}))>
{
    using R = decltype(job(std::size_t{}));
    std::vector<R> out(n);
    ThreadPool pool(threads);
    pool.forEachIndex(n, [&](std::size_t i) { out[i] = job(i); });
    return out;
}

/** As above with the default worker count (CAPU_BENCH_THREADS / hw). */
template <typename Job>
auto
sweepParallel(std::size_t n, Job job)
    -> std::vector<decltype(job(std::size_t{}))>
{
    return sweepParallel(n, std::move(job), benchThreads());
}

/** "x.xx" ratio cell, guarding division by zero. */
inline std::string
ratioCell(double num, double den)
{
    if (den <= 0)
        return "-";
    return cellDouble(num / den, 2) + "x";
}

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    // Policy-internal inform()/warn() chatter would drown the tables.
    setLogEnabled(false);
    std::cout << "==========================================================="
                 "=====================\n"
              << title << "\n"
              << "(reproduces " << paper_ref
              << " of Peng et al., \"Capuchin\", ASPLOS 2020; simulated "
                 "P100)\n"
              << "==========================================================="
                 "=====================\n\n";
}

} // namespace capu::bench

#endif // CAPU_BENCH_COMMON_HH
