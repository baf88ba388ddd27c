#include "workloads.hh"

#include <stdexcept>

#include <sys/resource.h>

namespace perfbench
{

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"units_per_s", "1/s"},
        {"unit_p50_ms", "ms"},
        {"secondary_ms", "ms"},
        {"peak_rss_mb", "MiB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"models.build_ms", "ms"},
        {"models.builds", "count"},
        {"exec.session_ctor_ms", "ms"},
        {"exec.measured_iter_ms", "ms"},
        {"exec.guided_iter_ms", "ms"},
        {"exec.steps_per_s", "1/s"},
        {"exec.recompute_ops", "count"},
        {"exec.oom_evictions", "count"},
        {"exec.fork_ms", "ms"},
        {"exec.probes", "count"},
        {"exec.probe_waste_frac", "ratio"},
        {"exec.replay_synth_frac", "ratio"},
        {"core.plan_build_ms", "ms"},
        {"core.plan_items", "count"},
        {"core.plan_revisions", "count"},
        {"core.feedback_adjustments", "count"},
        {"memory.bfc_splits", "count"},
        {"memory.bfc_merges", "count"},
        {"memory.bfc_failed_allocs", "count"},
        {"memory.fragmentation", "ratio"},
        {"sim.iter_ticks", "ticks"},
        {"sim.swap_bytes", "bytes"},
        {"sim.table2_err_pct", "%"},
        {"obs.events", "count"},
        {"obs.dropped", "count"},
        {"obs.overhead_x", "x"},
        {"obs.export_ms", "ms"},
        {"prof.build_ms", "ms"},
        {"prof.events_per_s", "1/s"},
        {"analysis.verify_ms", "ms"},
        {"analysis.edges", "count"},
        {"analysis.lint_ms", "ms"},
        {"serve.handle_hit_ms", "ms"},
        {"serve.handle_miss_ms", "ms"},
        {"serve.wait_ms", "ms"},
        {"serve.hit_rate", "ratio"},
        {"serve.evictions", "1/req"},
        {"serve.measures_per_key", "ratio"},
        {"support.pool_efficiency", "ratio"},
        {"self.models_ms", "ms"},
        {"self.exec_ms", "ms"},
        {"self.core_ms", "ms"},
        {"self.analysis_ms", "ms"},
        {"self.prof_ms", "ms"},
        {"self.obs_ms", "ms"},
        {"self.serve_ms", "ms"},
        {"self.support_ms", "ms"},
        {"self.other_ms", "ms"},
        {"host.probe_ms", "ms"},
        {"trace.wall_ms", "ms"},
        {"trace.conservation_err_ms", "ms"},
        {"trace.overhead_ms", "ms"},
        {"trace.overhead_frac", "ratio"},
    };
    return specs;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "train-long", "train-observed", "max-batch-sweep", "serve-mix"};
    return names;
}

void
Outcome::operation(bool ok, const std::string &why)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(why);
}

Outcome
runWorkload(const std::string &name, const Context &ctx)
{
    if (name == "train-long")
        return runTrainLong(ctx);
    if (name == "train-observed")
        return runTrainObserved(ctx);
    if (name == "max-batch-sweep")
        return runMaxBatchSweep(ctx);
    if (name == "serve-mix")
        return runServeMix(ctx);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
