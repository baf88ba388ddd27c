/**
 * @file
 * Section 6.3.2 "Runtime overhead": cost of Capuchin's tensor-access
 * tracking when no memory optimization is needed.
 *
 * Paper findings: at each model's TF-ori maximum batch the overhead is
 * <1% (average 0.36%); at a smaller batch at most 1.6% (average 0.9%).
 * In eager mode: 1.5% (ResNet-50) and 2.5% (DenseNet).
 */

#include <iostream>

#include "bench/common.hh"

using namespace capu;
using namespace capu::bench;

int
main()
{
    banner("Runtime overhead of access tracking (no oversubscription)",
           "section 6.3.2 (Figure 9's first points)");

    Table t({"model", "batch", "TF-ori img/s", "Capuchin img/s",
             "overhead", "paper"});

    double sum = 0;
    int n = 0;
    for (ModelKind kind : graphModeModels()) {
        // ~80% of the TF-ori maximum: safely inside memory.
        std::int64_t batch = maxBatch(kind, System::TfOri) * 4 / 5;
        double tf = steadySpeed(kind, batch, System::TfOri, {}, 6, 2);
        double capu = steadySpeed(kind, batch, System::Capuchin, {}, 6, 2);
        double overhead = tf > 0 ? 1.0 - capu / tf : 0.0;
        sum += overhead;
        ++n;
        t.addRow({modelName(kind), cellInt(batch), cellDouble(tf, 1),
                  cellDouble(capu, 1), cellPercent(overhead, 2), "< 1%"});
    }
    t.print(std::cout);
    std::cout << "\naverage overhead: " << cellPercent(sum / n, 2)
              << " (paper: 0.36% at max batch, 0.9% at small batch)\n";

    std::cout << "\nEager mode:\n";
    ExecConfig eager;
    eager.eagerMode = true;
    Table e({"model", "batch", "TF-ori img/s", "Capuchin img/s", "overhead",
             "paper"});
    for (ModelKind kind : eagerModeModels()) {
        std::int64_t batch = maxBatch(kind, System::TfOri, eager) * 4 / 5;
        double tf = steadySpeed(kind, batch, System::TfOri, eager, 6, 2);
        double capu = steadySpeed(kind, batch, System::Capuchin, eager, 6,
                                  2);
        e.addRow({modelName(kind), cellInt(batch), cellDouble(tf, 1),
                  cellDouble(capu, 1), cellPercent(1.0 - capu / tf, 2),
                  kind == ModelKind::ResNet50 ? "1.5%" : "2.5%"});
    }
    e.print(std::cout);

    std::cout << "\nNote: our tracker hangs off the executor's existing "
                 "access hooks, so the simulated overhead is ~0; the "
                 "paper's small overhead comes from host-side "
                 "lock/bookkeeping our timing model folds into kernel "
                 "launch cost.\n";
    return 0;
}
