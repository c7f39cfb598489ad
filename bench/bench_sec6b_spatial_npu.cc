/**
 * @file
 * Section VI-B: NeuMMU on an alternative, spatial-array NPU
 * (DaDianNao/Eyeriss-class vector-MAC grid) with the same SPM-centric
 * memory hierarchy. The translation-burst problem and NeuMMU's fix
 * carry over.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Section VI-B",
                       "Spatial-array NPU (4096 MACs/cycle): IOMMU vs. "
                       "NeuMMU, normalized to oracle");
    bench::Reporter reporter("sec6b", argc, argv);

    SystemConfig base;
    base.npu.compute = ComputeKind::Spatial;
    const std::vector<bench::DesignPoint> designs = {
        {"IOMMU", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "iommu";
         }},
        {"NeuMMU", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "neummu";
         }}};

    std::printf("%-12s %12s %12s\n", "workload", "IOMMU", "NeuMMU");
    const bench::GridResults results = bench::runGrid(
        base, designs, bench::denseGrid(), &reporter,
        [](const bench::GridPoint &gp,
           const std::vector<bench::GridCell> &row) {
            std::printf("%-12s %12.4f %12.4f\n", gp.label().c_str(),
                        row[0].normalized, row[1].normalized);
            std::fflush(stdout);
        });

    std::printf("\naverage overhead: IOMMU %.1f%%, NeuMMU %.2f%% "
                "(paper: NeuMMU ~2%% on spatial NPUs)\n",
                (1.0 - results.meanNormalized("IOMMU")) * 100.0,
                (1.0 - results.meanNormalized("NeuMMU")) * 100.0);
    reporter.finish();
    return 0;
}
