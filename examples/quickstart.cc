/**
 * @file
 * Quickstart: run AlexNet (CNN-1) through the simulated NPU under the
 * three MMU design points of the paper -- oracular, baseline IOMMU,
 * and NeuMMU -- and print cycle counts, translation activity, and
 * energy, reproducing the headline result (Section IV-D): the IOMMU
 * loses ~95% of performance, NeuMMU ~0%.
 *
 * The machine is described declaratively (SystemConfig) and built by
 * the System layer; pass --dump-stats=1 to see every component's
 * counters from the StatsRegistry after the NeuMMU run.
 */

#include <cstdio>
#include <iostream>

#include "common/arg_parser.hh"
#include "driver/dense_experiment.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const unsigned batch = unsigned(args.getInt("batch", 1));

    DenseExperimentConfig cfg;
    cfg.workload = WorkloadId::CNN1;
    cfg.batch = batch;

    const char *points[] = {"oracle", "iommu", "neummu"};

    std::printf("AlexNet (CNN-1), batch %u, 4 KB pages\n\n", batch);
    std::printf("%-8s %14s %10s %12s %12s %14s\n", "MMU", "cycles",
                "norm", "walks", "walkDram", "energy(uJ)");

    Tick oracle_cycles = 0;
    for (const std::string design : points) {
        cfg.system.mmuDesign = design;
        System system(cfg.system);
        const DenseExperimentResult r = runDenseExperiment(cfg, system);
        if (oracle_cycles == 0)
            oracle_cycles = r.totalCycles;
        std::printf("%-8s %14llu %10.4f %12llu %12llu %14.2f\n",
                    translationDesign(design).title,
                    (unsigned long long)r.totalCycles,
                    double(oracle_cycles) / double(r.totalCycles),
                    (unsigned long long)r.mmu.walks,
                    (unsigned long long)r.mmu.walkMemAccesses,
                    r.translationEnergyNj / 1000.0);

        if (design == "neummu" && args.getBool("dump-stats", false)) {
            std::printf("\nStatsRegistry dump (NeuMMU machine):\n");
            system.dumpStatsText(std::cout);
        }
    }
    return 0;
}
