#include "analysis/lint_hooks.hh"

#include <iostream>
#include <memory>

#include "analysis/baseline_plans.hh"
#include "support/logging.hh"

namespace capu
{

namespace
{

/** Record one access on the corrected (infinite-memory) timeline. */
void
recordCorrected(AccessTracker &tracker, ExecContext &ctx,
                const AccessEvent &event)
{
    AccessRecord rec;
    rec.tensor = event.tensor;
    rec.accessIndex = event.accessIndex;
    Tick stall = ctx.memStallSoFar();
    rec.time = event.when > stall ? event.when - stall : 0;
    rec.isOutput = event.isOutput;
    rec.op = event.op;
    tracker.record(rec);
}

} // namespace

LintReport
runPlanLint(const Plan &plan, const Graph &graph,
            const AccessTracker &tracker, ExecContext &ctx,
            const LintHookOptions &hook, const std::string &who)
{
    PlanCheckerOptions opts;
    opts.gpuCapacity = ctx.gpuCapacity();
    opts.hostCapacity = ctx.hostCapacity();
    PlanChecker checker(graph, tracker, opts);
    LintReport report = checker.check(
        plan, [&](TensorId id) { return ctx.tensorBytes(id); },
        [&](std::uint64_t bytes) { return ctx.swapTime(bytes); });

    if (hook.printFindings && !report.diags.empty()) {
        std::cerr << who << " plan lint findings:\n";
        printLintReport(std::cerr, report, graph);
    }
    if (report.clean()) {
        inform("{} {}", who, report.summary());
    } else if (report.errorCount() > 0 && hook.panicOnError) {
        panic("{} plan failed lint: {}", who, report.summary());
    }
    return report;
}

void
enablePlanLint(CapuchinOptions &opts, LintHookOptions hook)
{
    opts.planAudit = [hook](const Plan &plan, const AccessTracker &tracker,
                            ExecContext &ctx) {
        runPlanLint(plan, ctx.graph(), tracker, ctx, hook, "capuchin");
    };
}

void
enablePlanLint(VdnnPolicy &policy, LintHookOptions hook)
{
    auto tracker = std::make_shared<AccessTracker>();
    policy.setAudit(
        [tracker](ExecContext &ctx, const AccessEvent &event) {
            recordCorrected(*tracker, ctx, event);
        },
        [tracker, hook](const VdnnPolicy &p, ExecContext &ctx) {
            Plan plan = planFromOffloadTargets(
                ctx.graph(), *tracker, p.targets(),
                [&](TensorId id) { return ctx.tensorBytes(id); },
                [&](std::uint64_t bytes) { return ctx.swapTime(bytes); });
            runPlanLint(plan, ctx.graph(), *tracker, ctx, hook, p.name());
        });
}

void
enablePlanLint(CheckpointingPolicy &policy, LintHookOptions hook)
{
    auto tracker = std::make_shared<AccessTracker>();
    policy.setAudit(
        [tracker](ExecContext &ctx, const AccessEvent &event) {
            recordCorrected(*tracker, ctx, event);
        },
        [tracker, hook](const CheckpointingPolicy &p, ExecContext &ctx) {
            Plan plan = planFromDropSet(
                ctx.graph(), *tracker, p.dropSet(),
                [&](TensorId id) { return ctx.tensorBytes(id); });
            runPlanLint(plan, ctx.graph(), *tracker, ctx, hook, p.name());
        });
}

} // namespace capu
