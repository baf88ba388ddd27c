/**
 * @file
 * Wiring the PlanChecker into the policies ("--lint").
 *
 * The policies live *below* the analysis layer (capu_core and capu_policy
 * cannot link capu_analysis), so linting is installed from above through
 * the audit hooks each policy exposes: CapuchinOptions::planAudit for
 * Capuchin, setAudit(observer, audit) for the static baselines. The
 * installed hooks run the full rule set against the iteration-0 trace and
 * panic on error-level findings — a broken plan dies at the decision
 * site, before guided execution can silently corrupt the measurements.
 */

#ifndef CAPU_ANALYSIS_LINT_HOOKS_HH
#define CAPU_ANALYSIS_LINT_HOOKS_HH

#include "analysis/plan_checker.hh"
#include "core/capuchin_policy.hh"
#include "policy/checkpointing_policy.hh"
#include "policy/vdnn_policy.hh"

namespace capu
{

struct LintHookOptions
{
    /** Throw PanicError when the report has error-level findings. */
    bool panicOnError = true;
    /** Print the diagnostics table (stderr) when findings exist. */
    bool printFindings = true;
};

/** Install the plan audit on a Capuchin policy's options. */
void enablePlanLint(CapuchinOptions &opts, LintHookOptions hook = {});

/**
 * Install trace recording + end-of-measured-iteration linting on a
 * baseline. The static decision is expressed as a Plan
 * (analysis/baseline_plans) and checked with the same rules as Capuchin.
 */
void enablePlanLint(VdnnPolicy &policy, LintHookOptions hook = {});
void enablePlanLint(CheckpointingPolicy &policy, LintHookOptions hook = {});

/**
 * Shared tail: run PlanChecker::check with the context's capacities,
 * print, and panic on errors per `hook`. Returns the report for callers
 * that want it (tests, capusim --lint summary).
 */
LintReport runPlanLint(const Plan &plan, const Graph &graph,
                       const AccessTracker &tracker, ExecContext &ctx,
                       const LintHookOptions &hook,
                       const std::string &who);

} // namespace capu

#endif // CAPU_ANALYSIS_LINT_HOOKS_HH
