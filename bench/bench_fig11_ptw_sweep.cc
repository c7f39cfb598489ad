/**
 * @file
 * Fig. 11: performance sensitivity to the number of parallel page-
 * table walkers (8..1024) with PRMB(32) and a 2048-entry TLB, across
 * the dense grid, normalized to the oracular MMU.
 *
 * The 144 (point, design) cells run through the SweepEngine
 * (--jobs=N workers; 0 = hardware concurrency), one System per cell;
 * rows stream in grid order and the numbers are byte-identical to a
 * serial run.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 11",
                       "PTW sweep with PRMB(32) (2048-entry TLB, "
                       "4 KB pages)");
    bench::Reporter reporter("fig11", argc, argv);

    const std::vector<unsigned> ptw_counts = {8,  16,  32,  64,
                                              128, 256, 512, 1024};
    std::vector<bench::DesignPoint> designs;
    for (const unsigned p : ptw_counts) {
        // Section IV-B staging: PRMB(32) + parallel PTWs; the TPreg
        // is introduced later (Section IV-C) and would shift the
        // knee left by shortening walks.
        designs.push_back({"PTW" + std::to_string(p),
                           [p](DenseExperimentConfig &cfg) {
                               cfg.system.mmu = neuMmuConfig();
                               cfg.system.mmu->numPtws = p;
                               cfg.system.mmu->prmbSlots = 32;
                               cfg.system.mmu->pathCache =
                                   MmuCacheKind::None;
                           }});
    }

    std::printf("%-12s", "workload");
    for (const unsigned p : ptw_counts)
        std::printf(" PTW(%4u)", p);
    std::printf("\n");

    const bench::GridResults results = bench::runGrid(
        SystemConfig{}, designs, bench::denseGrid(), &reporter,
        [](const bench::GridPoint &gp,
           const std::vector<bench::GridCell> &row) {
            std::printf("%-12s", gp.label().c_str());
            for (const bench::GridCell &c : row)
                std::printf(" %9.4f", c.normalized);
            std::printf("\n");
            std::fflush(stdout);
        });

    std::printf("\n%-12s", "average");
    for (const bench::DesignPoint &d : designs)
        std::printf(" %9.4f", results.meanNormalized(d.name));
    std::printf("\n\nPaper reference: going from 8 to 128 PTWs closes "
                "the gap from ~11%% to ~99%%\nof oracle; beyond 128 "
                "the curve saturates (Section IV-B).\n");
    reporter.finish();
    return 0;
}
