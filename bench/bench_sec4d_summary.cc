/**
 * @file
 * Section IV-D "putting everything together": baseline IOMMU vs. the
 * full NeuMMU (PTS + PRMB(32) + 128 PTWs + TPreg) across the dense
 * grid -- normalized performance, walk DRAM transactions, and energy.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Section IV-D",
                       "NeuMMU vs. baseline IOMMU: performance, walk "
                       "traffic, energy");
    bench::Reporter reporter("sec4d", argc, argv);

    const std::vector<bench::DesignPoint> designs = {
        {"IOMMU", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "iommu";
         }},
        {"NeuMMU", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "neummu";
         }}};

    std::printf("%-12s %12s %12s %14s %14s\n", "workload", "IOMMU",
                "NeuMMU", "IOMMU_dram", "NeuMMU_dram");
    std::uint64_t iommu_dram = 0, neummu_dram = 0;
    const bench::GridResults results = bench::runGrid(
        SystemConfig{}, designs, bench::denseGrid(), &reporter,
        [&](const bench::GridPoint &gp,
            const std::vector<bench::GridCell> &row) {
            const bench::GridCell &iommu = row[0];
            const bench::GridCell &neummu = row[1];
            iommu_dram += iommu.result.mmu.walkMemAccesses;
            neummu_dram += neummu.result.mmu.walkMemAccesses;
            std::printf(
                "%-12s %12.4f %12.4f %14llu %14llu\n",
                gp.label().c_str(), iommu.normalized,
                neummu.normalized,
                (unsigned long long)iommu.result.mmu.walkMemAccesses,
                (unsigned long long)neummu.result.mmu.walkMemAccesses);
            std::fflush(stdout);
        });

    std::printf("\nSummary (paper reference in parentheses):\n");
    std::printf("  IOMMU average performance overhead:  %5.1f%%  "
                "(~95%%)\n",
                (1.0 - results.meanNormalized("IOMMU")) * 100.0);
    std::printf("  NeuMMU average performance overhead: %5.2f%%  "
                "(0.06%%)\n",
                (1.0 - results.meanNormalized("NeuMMU")) * 100.0);
    std::printf("  Walk DRAM transaction reduction:     %5.1fx  "
                "(18.8x)\n",
                double(iommu_dram) / double(neummu_dram));
    std::printf("  Translation energy reduction:        %5.1fx  "
                "(16.3x)\n",
                results.energyNj("IOMMU") / results.energyNj("NeuMMU"));
    reporter.finish();
    return 0;
}
