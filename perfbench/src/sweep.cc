/**
 * @file
 * max-batch-sweep: a cut of the paper's evaluation sweep on a worker pool.
 *
 * One round fans every cell of the cut over `workers` threads: Table 2
 * graph-mode max-batch searches (every model x TF-ori, vDNN, OpenAI-M,
 * OpenAI-S, plus Capuchin on Vgg16 and ResNet-50), the cheaper Table 3
 * eager searches, and Figure 9 speed cells (two batches per model, every
 * system; the slowest Capuchin cells are left out). Each round is
 * followed by one solo findMaxBatch (ResNet-50, Capuchin) with
 * jobs = workers. After the timed rounds, a seed-chosen subset of cells
 * and the solo search are re-run serially: their answers must equal the
 * committed ones, which the parallel rounds matched as well.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>

#include "bench_util.hh"
#include "host_probe.hh"
#include "core/capuchin_policy.hh"
#include "exec/session.hh"
#include "models/zoo.hh"
#include "percentile.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/noop_policy.hh"
#include "policy/vdnn_policy.hh"
#include "support/thread_pool.hh"

namespace perfbench
{

namespace
{

using namespace capu;

enum class System
{
    TfOri,
    Vdnn,
    OpenAiM,
    OpenAiS,
    Capuchin,
};

const char *
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

std::unique_ptr<MemoryPolicy>
makePolicy(System s)
{
    switch (s) {
      case System::TfOri: return makeNoOpPolicy();
      case System::Vdnn: return makeVdnnPolicy();
      case System::OpenAiM:
        return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Memory);
      case System::OpenAiS:
        return makeCheckpointingPolicy(CheckpointingPolicy::Mode::Speed);
      case System::Capuchin: return makeCapuchinPolicy();
    }
    return nullptr;
}

struct Cell
{
    enum Kind
    {
        GraphSearch, ///< Table 2
        EagerSearch, ///< Table 3
        Speed,       ///< Figure 9
    } kind;
    ModelKind model;
    System sys;
    std::int64_t batch = 0; ///< Speed cells only

    std::string
    tag() const
    {
        switch (kind) {
          case GraphSearch:
            return strf("tab02.%s.%s", modelName(model), systemName(sys));
          case EagerSearch:
            return strf("tab03.%s.%s", modelName(model), systemName(sys));
          case Speed:
            return strf("fig09.%s@%lld.%s", modelName(model),
                        static_cast<long long>(batch), systemName(sys));
        }
        return "?";
    }
};

/** The cut, searches first (they are the long cells), heaviest first. */
std::vector<Cell>
sweepCells()
{
    std::vector<Cell> cells;
    cells.push_back({Cell::GraphSearch, ModelKind::ResNet50,
                     System::Capuchin});
    cells.push_back({Cell::EagerSearch, ModelKind::ResNet50,
                     System::Capuchin});
    for (ModelKind m : graphModeModels()) {
        for (System s : {System::Vdnn, System::OpenAiM, System::OpenAiS,
                         System::TfOri}) {
            if (m == ModelKind::BertBase && s == System::Vdnn)
                continue;
            cells.push_back({Cell::GraphSearch, m, s});
        }
    }
    cells.push_back({Cell::EagerSearch, ModelKind::DenseNet121,
                     System::TfOri});
    cells.push_back({Cell::EagerSearch, ModelKind::ResNet50, System::TfOri});
    cells.push_back({Cell::GraphSearch, ModelKind::Vgg16, System::Capuchin});

    const std::pair<ModelKind, std::vector<std::int64_t>> speeds[] = {
        {ModelKind::Vgg16, {220, 300}},
        {ModelKind::ResNet50, {210, 420}},
        {ModelKind::InceptionV3, {170, 350}},
        {ModelKind::ResNet152, {115, 310}},
        {ModelKind::InceptionV4, {100, 220}},
        {ModelKind::BertBase, {80, 200}},
    };
    for (const auto &[model, batches] : speeds) {
        for (std::int64_t b : batches) {
            for (System s : {System::TfOri, System::Vdnn, System::OpenAiM,
                             System::OpenAiS, System::Capuchin}) {
                if (model == ModelKind::BertBase && s == System::Vdnn)
                    continue;
                // Capuchin cells past the model's TF-ori wall on the
                // deep models take 0.1-0.8 s each; they would set every
                // round's tail on their own.
                bool heavy = s == System::Capuchin &&
                             ((model == ModelKind::ResNet152) ||
                              (model == ModelKind::InceptionV3 && b > 300) ||
                              (model == ModelKind::InceptionV4 && b > 200) ||
                              (model == ModelKind::BertBase && b > 100));
                if (!heavy)
                    cells.push_back({Cell::Speed, model, s, b});
            }
        }
    }
    return cells;
}

/** Paper Table 2 (TF-ori, vDNN, OpenAI, Capuchin); 0 = not reported. */
const std::map<ModelKind, std::array<int, 4>> &
paperTable2()
{
    static const std::map<ModelKind, std::array<int, 4>> t = {
        {ModelKind::Vgg16, {228, 272, 260, 350}},
        {ModelKind::ResNet50, {190, 520, 540, 1014}},
        {ModelKind::ResNet152, {86, 330, 440, 798}},
        {ModelKind::InceptionV3, {160, 400, 400, 716}},
        {ModelKind::InceptionV4, {88, 220, 220, 468}},
        {ModelKind::BertBase, {64, 0, 210, 450}},
    };
    return t;
}

struct CellResult
{
    std::string answer;
    double wallMs = 0;
    bool crashed = false;
    int oomEvictions = 0;
    std::uint64_t failedAllocs = 0;
    int executed = 0;
    int replayed = 0;
};

/** Graph builds and their host time, across every thread. */
struct BuildCounter
{
    std::atomic<std::uint64_t> builds{0};
    std::atomic<std::int64_t> ns{0};
};

Graph
countedBuild(BuildCounter &counter, ModelKind model, std::int64_t batch,
             std::uint64_t parent)
{
    Span span(Layer::Models, "buildModel", parent);
    std::int64_t t0 = nowNs();
    Graph g = buildModel(model, batch);
    counter.ns.fetch_add(nowNs() - t0, std::memory_order_relaxed);
    counter.builds.fetch_add(1, std::memory_order_relaxed);
    return g;
}

CellResult
runCell(const Cell &cell, BuildCounter &counter, std::uint64_t parent)
{
    Span cell_span(Layer::Support, "sweep cell", parent);
    const std::uint64_t self = currentSpan();
    CellResult res;
    std::int64_t t0 = nowNs();
    try {
        if (cell.kind == Cell::Speed) {
            // Figure 9 cell, as fig09_speed_graph runs it, with steady-state
            // replay armed (the contract: replayed numbers are identical).
            ExecConfig cfg;
            cfg.replay.enabled = true;
            int iters = cell.sys == System::Capuchin ? 16 : 6;
            int skip = cell.sys == System::Capuchin ? 10 : 3;
            Graph g = countedBuild(counter, cell.model, cell.batch, self);
            std::optional<Session> session;
            {
                Span span(Layer::Exec, "Session::Session");
                session.emplace(std::move(g), cfg, makePolicy(cell.sys));
            }
            SessionResult r;
            {
                Span span(Layer::Exec, "Session::run");
                r = session->run(iters);
            }
            res.answer = r.oom ? std::string("OOM")
                               : strf("%.17g", r.steadyThroughput(
                                                   cell.batch, skip));
            for (const IterationStats &it : r.iterations)
                res.oomEvictions += it.oomEvictions;
            res.failedAllocs =
                session->executor().memory().gpu().stats().failedAllocs;
            res.executed = r.replay.executed;
            res.replayed = r.replay.replayed;
        } else {
            ExecConfig cfg;
            cfg.eagerMode = cell.kind == Cell::EagerSearch;
            ModelKind model = cell.model;
            System sys = cell.sys;
            Span span(Layer::Exec, "findMaxBatch");
            std::uint64_t search = span.id();
            std::int64_t mb = findMaxBatch(
                [&](std::int64_t b) {
                    return countedBuild(counter, model, b, search);
                },
                [sys] { return makePolicy(sys); }, cfg, 3, 1, 4096);
            res.answer = std::to_string(mb);
        }
    } catch (const std::exception &e) {
        res.crashed = true;
        res.answer = std::string("crash: ") + e.what();
    }
    res.wallMs = msSince(t0);
    return res;
}

struct SoloResult
{
    std::int64_t answer = 0;
    double wallMs = 0;
    MaxBatchStats stats;
};

SoloResult
soloSearch(unsigned jobs, BuildCounter &counter)
{
    SoloResult res;
    std::int64_t t0 = nowNs();
    Span span(Layer::Exec, "findMaxBatch/solo");
    std::uint64_t parent = span.id();
    res.answer = findMaxBatch(
        [&](std::int64_t b) {
            return countedBuild(counter, ModelKind::ResNet50, b, parent);
        },
        [] { return makePolicy(System::Capuchin); }, ExecConfig{}, 3, 1,
        4096, jobs, &res.stats);
    res.wallMs = msSince(t0);
    return res;
}

} // namespace

Outcome
runMaxBatchSweep(const Context &ctx)
{
    Outcome out;
    Fingerprints &fp = *ctx.expected;
    const std::vector<Cell> cells = sweepCells();
    const unsigned workers = std::max(1u, ctx.workers);

    // Set-up: start the worker pool and build every model of the cut once
    // (graph construction is what each of the sweep's probes pays first).
    std::vector<double> setup_s;
    std::unique_ptr<ThreadPool> pool;
    BuildCounter warm;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::int64_t t0 = nowNs();
        pool.reset();
        {
            Span span(Layer::Support, "ThreadPool::ThreadPool");
            pool = std::make_unique<ThreadPool>(workers);
        }
        for (ModelKind m : allModels())
            (void)countedBuild(warm, m, 64, 0);
        setup_s.push_back(scaleByProbe(msSince(t0), out.probeMs) / 1e3);
    }

    std::vector<double> cell_ms, round_ms, efficiency, solo_ms;
    // Probe-scaled copies (host_probe.hh) for the end-to-end metrics.
    std::vector<double> cell_norm, rate_norm, solo_norm;
    std::vector<double> solo_probes;
    double speculated = 0, wasted = 0;
    double round_builds = 0, round_evictions = 0, round_failed_allocs = 0;
    double executed = 0, replayed = 0;
    std::map<std::string, std::string> answers;
    BuildCounter counter;
    Budget budget(ctx.seconds);
    const std::size_t need = samplesToResolve(90);
    int rounds = 0;
    while (budget.more(cell_ms.size() >= need && rounds >= 3)) {
        std::vector<CellResult> results(cells.size());
        std::uint64_t builds_before = counter.builds.load();
        std::int64_t t0 = nowNs();
        {
            Span span(Layer::Support, "ThreadPool::forEachIndex");
            std::uint64_t parent = span.id();
            pool->forEachIndex(cells.size(), [&](std::size_t i) {
                results[i] = runCell(cells[i], counter, parent);
            });
        }
        double wall = msSince(t0);
        round_ms.push_back(wall);
        double busy = 0;
        round_evictions = round_failed_allocs = 0;
        executed = replayed = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellResult &r = results[i];
            const std::string tag = cells[i].tag();
            bool ok = !r.crashed && fp.check("sweep." + tag, r.answer);
            out.operation(ok, tag + ": " + r.answer);
            answers[tag] = r.answer;
            cell_ms.push_back(r.wallMs);
            busy += r.wallMs;
            round_evictions += r.oomEvictions;
            round_failed_allocs += static_cast<double>(r.failedAllocs);
            executed += r.executed;
            replayed += r.replayed;
        }
        round_builds =
            static_cast<double>(counter.builds.load() - builds_before);
        efficiency.push_back(ratio(busy, workers * wall));

        SoloResult solo = soloSearch(workers, counter);
        out.operation(fp.check("sweep.solo.ResNet-50.Capuchin", solo.answer),
                      "solo search answer differs");
        solo_ms.push_back(solo.wallMs);
        solo_probes.push_back(solo.stats.probes);
        speculated += solo.stats.speculated;
        wasted += solo.stats.wasted;
        // Probe on every worker at once (the rounds load all CPUs) and
        // scale this round's times by the result.
        std::vector<double> probes(workers);
        pool->forEachIndex(workers, [&](std::size_t i) {
            probes[i] = runHostProbe();
        });
        out.probeMs.insert(out.probeMs.end(), probes.begin(), probes.end());
        double f = hostSpeedFactor(probes);
        for (const CellResult &r : results)
            cell_norm.push_back(r.wallMs * f);
        rate_norm.push_back(ratio(static_cast<double>(cells.size()),
                                  wall / 1e3) / f);
        solo_norm.push_back(solo.wallMs * f);
        ++rounds;
    }
    double timed_s = budget.elapsed();
    pool.reset();

    // Serial re-check: a seed-chosen eighth of the cells plus the solo
    // search at jobs = 1 must give the committed answers too.
    std::vector<std::size_t> subset;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if ((i + ctx.seed) % 8 == 0)
            subset.push_back(i);
    }
    std::int64_t s0 = nowNs();
    for (std::size_t i : subset) {
        CellResult r = runCell(cells[i], counter, 0);
        bool ok = !r.crashed && fp.check("sweep." + cells[i].tag(), r.answer);
        out.operation(ok, "serial " + cells[i].tag() + ": " + r.answer);
    }
    SoloResult serial = soloSearch(1, counter);
    out.operation(fp.check("sweep.solo.ResNet-50.Capuchin", serial.answer),
                  "serial solo search answer differs");
    double serial_s = msSince(s0) / 1e3;

    // Table 2 error over the searches in the cut, as the paper reports it
    // (OpenAI = the better of its two modes).
    double err_sum = 0;
    int err_n = 0;
    auto found = [&](ModelKind m, System s) -> double {
        auto it = answers.find(
            Cell{Cell::GraphSearch, m, s}.tag());
        return it == answers.end() ? -1.0 : std::atof(it->second.c_str());
    };
    for (const auto &[model, paper] : paperTable2()) {
        double oai = std::max(found(model, System::OpenAiM),
                              found(model, System::OpenAiS));
        const double cols[4] = {found(model, System::TfOri),
                                found(model, System::Vdnn), oai,
                                found(model, System::Capuchin)};
        for (int c = 0; c < 4; ++c) {
            if (paper[c] > 0 && cols[c] >= 0) {
                err_sum += std::abs(cols[c] - paper[c]) / paper[c] * 100.0;
                ++err_n;
            }
        }
    }
    double table2_err = err_n > 0 ? err_sum / err_n : 0.0;

    Percentile p50 = nearestRank(cell_ms, 50);
    Percentile p90 = nearestRank(cell_ms, 90);
    std::vector<double> rates;
    for (double w : round_ms)
        rates.push_back(ratio(static_cast<double>(cells.size()), w / 1e3));
    out.unitMedianMs = p50.value;

    auto &m = out.metrics;
    m["setup_s"] = median(setup_s);
    m["units_per_s"] = median(rate_norm);
    m["unit_p50_ms"] = nearestRank(cell_norm, 50).value;
    m["secondary_ms"] = median(solo_norm);
    m["peak_rss_mb"] = peakRssMb();

    m["models.build_ms"] =
        ratio(static_cast<double>(counter.ns.load()) / 1e6,
              static_cast<double>(counter.builds.load()));
    m["models.builds"] = round_builds;
    m["exec.oom_evictions"] = round_evictions;
    m["exec.probes"] = median(solo_probes);
    m["exec.probe_waste_frac"] = ratio(wasted, speculated);
    m["exec.replay_synth_frac"] = ratio(replayed, executed + replayed);
    m["memory.bfc_failed_allocs"] = round_failed_allocs;
    m["sim.table2_err_pct"] = table2_err;
    m["support.pool_efficiency"] = median(efficiency);

    out.line(strf("max-batch-sweep: %zu cells per round on %u workers, %d "
                  "rounds in %.2f s",
                  cells.size(), workers, rounds, timed_s));
    out.line(strf("  sweep_s %.4f s (median of %d rounds); %.3f cells/s",
                  median(round_ms) / 1e3, rounds, median(rates)));
    out.line("  cell " + describe(p50, "ms") + "; " + describe(p90, "ms"));
    out.line(strf("  solo_search_s %.4f s (median of %zu, ResNet-50 "
                  "Capuchin, jobs %u); serial re-run %.4f s",
                  median(solo_ms) / 1e3, solo_ms.size(), workers,
                  serial.wallMs / 1e3));
    out.line(strf("  solo probes %.0f (median); probe_waste_frac %.3f = "
                  "%.0f wasted / %.0f speculated",
                  median(solo_probes), ratio(wasted, speculated), wasted,
                  speculated));
    out.line(strf("  replay_synth_frac %.3f = %.0f synthesized / %.0f "
                  "iterations (speed cells, one round)",
                  ratio(replayed, executed + replayed), replayed,
                  executed + replayed));
    out.line(strf("  pool_efficiency %.3f (median; busy cell time / "
                  "workers x round wall)",
                  median(efficiency)));
    out.line(strf("  table2_err_pct %.4f %% (mean |found - paper| / paper "
                  "over %d Table 2 entries in the cut; simulated)",
                  table2_err, err_n));
    out.line(strf("  serial re-check: %zu cells + solo search at jobs 1 in "
                  "%.2f s",
                  subset.size(), serial_s));
    return out;
}

} // namespace perfbench
