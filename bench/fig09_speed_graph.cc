/**
 * @file
 * Figure 9 (a-f): training speed vs batch size, graph mode, all systems.
 *
 * Paper shape to reproduce per model:
 *  - TF-ori is fastest but dies at its memory wall;
 *  - vDNN is slow and flat (static layer-wise swapping);
 *  - OpenAI is flat at a moderate level (static recomputation);
 *  - Capuchin tracks TF-ori (<3% loss at +20% batch), degrades slowly
 *    (~26% at 75% of its own max), and is the fastest managed system at
 *    every batch; on Vgg16/BERT it can even *gain* speed from freed
 *    memory / better GPU utilization.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hh"

using namespace capu;
using namespace capu::bench;

namespace
{

struct Sweep
{
    ModelKind kind;
    std::vector<std::int64_t> batches; ///< roughly the paper's x-axis
};

const Sweep kSweeps[] = {
    {ModelKind::Vgg16, {200, 220, 240, 260, 280, 300, 320}},
    {ModelKind::ResNet50, {140, 210, 280, 350, 420, 560, 700, 900, 1000}},
    {ModelKind::InceptionV3, {110, 170, 230, 290, 350, 470, 590, 700}},
    {ModelKind::ResNet152, {50, 115, 180, 245, 310, 440, 570, 700}},
    {ModelKind::InceptionV4, {60, 100, 140, 180, 220, 300, 380, 460}},
    {ModelKind::BertBase, {40, 80, 120, 160, 200, 280, 360, 440}},
};

} // namespace

int
main()
{
    banner("Training speed vs batch size, graph mode (six models)",
           "Figure 9 (a-f)");

    // Flatten the (model, batch, system) cube into independent cells and
    // fan them out across the worker pool; each cell runs its own Session
    // so results are identical at any thread count. The serial loop below
    // only formats.
    const System kSystems[] = {System::TfOri, System::Vdnn,
                               System::OpenAiM, System::OpenAiS,
                               System::Capuchin};
    struct CellJob
    {
        const Sweep *sweep;
        std::int64_t batch;
        System sys;
    };
    std::vector<CellJob> jobs;
    for (const Sweep &sweep : kSweeps) {
        for (std::int64_t batch : sweep.batches) {
            for (System sys : kSystems)
                jobs.push_back(CellJob{&sweep, batch, sys});
        }
    }
    auto skipped = [&](std::size_t i) {
        return jobs[i].sweep->kind == ModelKind::BertBase &&
               jobs[i].sys == System::Vdnn;
    };
    // Speed in samples/s; 0 for an OOM or a skipped cell.
    auto speeds = sweepParallel(jobs.size(), [&](std::size_t i) {
        const CellJob &job = jobs[i];
        if (skipped(i))
            return 0.0;
        int iters = job.sys == System::Capuchin ? 16 : 6;
        int skip = job.sys == System::Capuchin ? 10 : 3;
        return steadySpeed(job.sweep->kind, job.batch, job.sys, {}, iters,
                           skip);
    });
    auto cell = [&](std::size_t i) {
        if (skipped(i))
            return std::string("-");
        return speeds[i] > 0 ? cellDouble(speeds[i], 1) : std::string("OOM");
    };

    // Capuchin leads a (model, batch) row when it runs at least as fast
    // as every other managed system that runs there.
    int rows = 0;
    int led = 0;
    std::string not_led; // "; "-separated exceptions
    std::size_t next = 0;
    for (const Sweep &sweep : kSweeps) {
        std::cout << "--- " << modelName(sweep.kind) << " ---\n";
        Table t({"batch", "TF-ori", "vDNN", "OpenAI-M", "OpenAI-S",
                 "Capuchin"});
        for (std::int64_t batch : sweep.batches) {
            t.addRow({cellInt(batch), cell(next), cell(next + 1),
                      cell(next + 2), cell(next + 3), cell(next + 4)});
            std::size_t best = next + 4;
            for (std::size_t i = next + 1; i < next + 4; ++i) {
                if (speeds[i] > speeds[best])
                    best = i;
            }
            if (speeds[best] > 0) {
                ++rows;
                if (best == next + 4) {
                    ++led;
                } else {
                    not_led += fmt("{}{}@{} ({} {} vs {})",
                                   not_led.empty() ? "" : "; ",
                                   modelName(sweep.kind), batch,
                                   systemName(jobs[best].sys),
                                   cell(best), cell(next + 4));
                }
            }
            next += 5;
        }
        t.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Paper shapes, not checked here: TF-ori fastest until "
                 "its wall; Capuchin degrades gracefully; vDNN flat-slow; "
                 "OpenAI flat-moderate.\n"
              << "Capuchin leads every managed system in " << led << " of "
              << rows << " rows where a managed system runs (paper: every "
                 "batch)"
              << (not_led.empty() ? "" : "; not in " + not_led) << ".\n";
    return 0;
}
