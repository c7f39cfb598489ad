/**
 * @file
 * Fig. 10: performance sensitivity to the number of PRMB mergeable
 * slots (1..32) with the baseline 8 PTWs and 2048-entry TLB, across
 * the dense grid, normalized to the oracular MMU.
 *
 * The 108 (point, design) cells run through the SweepEngine
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
    bench::printHeader("Figure 10",
                       "PRMB mergeable-slot sweep (8 PTWs, 2048-entry "
                       "TLB, 4 KB pages)");
    bench::Reporter reporter("fig10", argc, argv);

    const std::vector<unsigned> slot_counts = {1, 2, 4, 8, 16, 32};
    std::vector<bench::DesignPoint> designs;
    for (const unsigned s : slot_counts) {
        // Section IV-A staging: PRMB only -- no TPreg yet.
        designs.push_back({"PRMB" + std::to_string(s),
                           [s](DenseExperimentConfig &cfg) {
                               cfg.system.mmu = baselineIommuConfig();
                               cfg.system.mmu->prmbSlots = s;
                           }});
    }

    std::printf("%-12s", "workload");
    for (const unsigned s : slot_counts)
        std::printf(" PRMB(%2u)", s);
    std::printf("\n");

    const bench::GridResults results = bench::runGrid(
        SystemConfig{}, designs, bench::denseGrid(), &reporter,
        [](const bench::GridPoint &gp,
           const std::vector<bench::GridCell> &row) {
            std::printf("%-12s", gp.label().c_str());
            for (const bench::GridCell &c : row)
                std::printf(" %8.4f", c.normalized);
            std::printf("\n");
            std::fflush(stdout);
        });

    std::printf("\n%-12s", "average");
    for (const bench::DesignPoint &d : designs)
        std::printf(" %8.4f", results.meanNormalized(d.name));
    std::printf("\n\nPaper reference: 8-32 slots capture the burst "
                "locality; PRMB(32) with 8 PTWs\nreaches ~11%% of "
                "oracle on average (max ~98%% on compute-bound "
                "points), leaving\nthe throughput gap Fig. 11 closes "
                "with more walkers.\n");
    reporter.finish();
    return 0;
}
