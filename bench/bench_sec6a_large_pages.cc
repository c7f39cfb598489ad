/**
 * @file
 * Section VI-A: 2 MB large pages on the dense workloads. The baseline
 * IOMMU's overhead shrinks to a few percent (larger TLB reach, ~512x
 * fewer translations) and NeuMMU removes what remains -- but Fig. 16
 * shows large pages backfire for sparse embedding gathers.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Section VI-A",
                       "Dense workloads under 2 MB large pages "
                       "(normalized to oracle)");
    bench::Reporter reporter("sec6a", argc, argv);

    SystemConfig base;
    base.pageShift = largePageShift;
    const std::vector<bench::DesignPoint> designs = {
        {"IOMMU_2MB", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "iommu";
         }},
        {"NeuMMU_2MB", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "neummu";
         }}};

    std::printf("%-12s %12s %12s\n", "workload", "IOMMU_2MB",
                "NeuMMU_2MB");
    const bench::GridResults results = bench::runGrid(
        base, designs, bench::denseGrid(), &reporter,
        [](const bench::GridPoint &gp,
           const std::vector<bench::GridCell> &row) {
            std::printf("%-12s %12.4f %12.4f\n", gp.label().c_str(),
                        row[0].normalized, row[1].normalized);
            std::fflush(stdout);
        });

    std::printf("\naverage overhead: IOMMU %.1f%% (paper: ~4%%, worst "
                "10%%), NeuMMU %.2f%%\n",
                (1.0 - results.meanNormalized("IOMMU_2MB")) * 100.0,
                (1.0 - results.meanNormalized("NeuMMU_2MB")) * 100.0);
    std::printf("Large pages alone look like a silver bullet for "
                "dense CNNs/RNNs; Fig. 16\nshows why small-page "
                "translation must stay robust (Section VI-A).\n");
    reporter.finish();
    return 0;
}
