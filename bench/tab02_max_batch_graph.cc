/**
 * @file
 * Table 2: maximum batch size in graph mode, all systems x six models.
 *
 * Paper values (P100 16 GB):
 *   model        TF-ori  vDNN  OpenAI  Capuchin
 *   Vgg16           228   272     260       350
 *   ResNet-50       190   520     540      1014
 *   ResNet-152       86   330     440       798
 *   InceptionV3     160   400     400       716
 *   InceptionV4      88   220     220       468
 *   BERT             64     -     210       450
 *
 * OpenAI's column is the better of its memory/speed modes (§6.3.1).
 */

#include <algorithm>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <utility>

#include "bench/common.hh"

using namespace capu;
using namespace capu::bench;

int
main()
{
    banner("Maximum batch size, graph mode", "Table 2");

    const std::map<ModelKind, std::array<int, 4>> paper = {
        {ModelKind::Vgg16, {228, 272, 260, 350}},
        {ModelKind::ResNet50, {190, 520, 540, 1014}},
        {ModelKind::ResNet152, {86, 330, 440, 798}},
        {ModelKind::InceptionV3, {160, 400, 400, 716}},
        {ModelKind::InceptionV4, {88, 220, 220, 468}},
        {ModelKind::BertBase, {64, 0, 210, 450}},
    };

    Table t({"model", "TF-ori", "vDNN", "OpenAI", "Capuchin",
             "Capuchin/TF", "paper (TF/vDNN/OpenAI/Capu)"});

    // Each (model, system) max-batch search is independent; fan the 5
    // searches per model out across the worker pool and assemble rows
    // from the index-ordered results below.
    auto models = graphModeModels();
    struct SearchJob
    {
        ModelKind kind;
        System sys;
        bool skip;
    };
    std::vector<SearchJob> jobs;
    for (ModelKind kind : models) {
        for (System sys : {System::TfOri, System::Vdnn, System::OpenAiM,
                           System::OpenAiS, System::Capuchin}) {
            bool skip = kind == ModelKind::BertBase && sys == System::Vdnn;
            jobs.push_back(SearchJob{kind, sys, skip});
        }
    }
    double t0 = wallMs();
    auto found = sweepParallel(jobs.size(), [&](std::size_t i) {
        return jobs[i].skip
                   ? std::int64_t(0)
                   : maxBatch(jobs[i].kind, jobs[i].sys);
    });
    double search_ms = wallMs() - t0;

    double ratio_sum = 0;
    double ratio_max = 0;
    int n = 0;
    int largest = 0;        // models where no other system fits more
    std::string not_largest; // "; "-separated exceptions
    std::size_t row = 0;
    for (ModelKind kind : models) {
        std::int64_t tf = found[row];
        std::int64_t vdnn = found[row + 1];
        std::int64_t oai = std::max(found[row + 2], found[row + 3]);
        std::int64_t capu = found[row + 4];
        row += 5;

        double ratio = tf > 0 ? static_cast<double>(capu) / tf : 0;
        ratio_sum += ratio;
        ratio_max = std::max(ratio_max, ratio);
        ++n;

        const std::pair<const char *, std::int64_t> rivals[] = {
            {"TF-ori", tf}, {"vDNN", vdnn}, {"OpenAI", oai}};
        const auto &best = *std::max_element(
            std::begin(rivals), std::end(rivals),
            [](const auto &a, const auto &b) { return a.second < b.second; });
        if (capu >= best.second) {
            ++largest;
        } else {
            not_largest += fmt("{}{} ({} {} vs {})",
                               not_largest.empty() ? "" : "; ",
                               modelName(kind), best.first, best.second,
                               capu);
        }

        const auto &p = paper.at(kind);
        t.addRow({modelName(kind), cellInt(tf),
                  vdnn ? cellInt(vdnn) : "-", cellInt(oai), cellInt(capu),
                  cellDouble(ratio, 2) + "x",
                  fmt("{}/{}/{}/{}", p[0], p[1] ? std::to_string(p[1]) : "-",
                      p[2], p[3])});
    }
    t.print(std::cout);

    std::cout << "\nCapuchin/TF-ori batch gain: average "
              << cellDouble(ratio_sum / n, 2) << "x (paper: 5.49x avg), max "
              << cellDouble(ratio_max, 2) << "x.\n"
              << "Shape check: Capuchin holds the largest batch on "
              << largest << " of " << n << " models (paper: every model)"
              << (not_largest.empty() ? "" : "; not on " + not_largest)
              << ".\n"
              << "Search wall: " << cellDouble(search_ms / 1000.0, 2)
              << " s for " << jobs.size()
              << " memoized max-batch searches (replay-armed probes) on "
              << benchThreads() << " threads.\n";
    return 0;
}
