/**
 * @file
 * Quickstart: run AlexNet (CNN-1) through the simulated NPU under the
 * three MMU design points of the paper -- oracular, baseline IOMMU,
 * and NeuMMU -- and print cycle counts, translation activity, and
 * energy, reproducing the headline result (Section IV-D): the IOMMU
 * loses ~95% of performance, NeuMMU ~0%.
 *
 * The machine is described declaratively (SystemConfig) and built by
 * the System layer; a DenseDnnWorkload runs on NPU 0 through the
 * Scheduler. Pass --dump-stats=1 to see every component's counters
 * from the StatsRegistry after the NeuMMU run.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "common/arg_parser.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const unsigned batch = unsigned(args.getInt("batch", 1));

    const char *points[] = {"oracle", "iommu", "neummu"};

    std::printf("AlexNet (CNN-1), batch %u, 4 KB pages\n\n", batch);
    std::printf("%-8s %14s %10s %12s %12s %14s\n", "MMU", "cycles",
                "norm", "walks", "walkDram", "energy(uJ)");

    Tick oracle_cycles = 0;
    for (const std::string design : points) {
        SystemConfig cfg;
        cfg.mmuDesign = design;
        System system(cfg);
        Scheduler scheduler(system);
        DenseDnnWorkloadConfig wl;
        wl.workload = WorkloadId::CNN1;
        wl.batch = batch;
        scheduler.add(std::make_unique<DenseDnnWorkload>(wl), 0);
        const Tick cycles = scheduler.run().totalCycles;

        if (oracle_cycles == 0)
            oracle_cycles = cycles;
        const MmuCounts &counts = system.mmu().counts();
        std::printf("%-8s %14llu %10.4f %12llu %12llu %14.2f\n",
                    translationDesign(design).title,
                    (unsigned long long)cycles,
                    double(oracle_cycles) / double(cycles),
                    (unsigned long long)counts.walks,
                    (unsigned long long)counts.walkMemAccesses,
                    system.mmu().translationEnergyNj() / 1000.0);

        if (design == "neummu" && args.getBool("dump-stats", false)) {
            std::printf("\nStatsRegistry dump (NeuMMU machine):\n");
            system.dumpStatsText(std::cout);
        }
    }
    return 0;
}
