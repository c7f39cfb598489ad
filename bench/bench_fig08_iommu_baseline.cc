/**
 * @file
 * Fig. 8: performance of the baseline IOMMU (2048-entry TLB, 8 PTWs)
 * with 4 KB pages, normalized to the oracular MMU, across the full
 * dense grid. Also reproduces the Section III-C TLB-sweep argument:
 * even a 128K-entry TLB barely helps.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 8",
                       "Baseline IOMMU normalized performance "
                       "(4 KB pages, oracle = 1.0)");
    bench::Reporter reporter("fig08", argc, argv);

    std::printf("%-12s %12s %14s %14s %12s\n", "workload", "norm_perf",
                "oracle_cyc", "iommu_cyc", "tlb_hit%");
    const std::vector<bench::DesignPoint> designs = {
        {"IOMMU", [](DenseExperimentConfig &cfg) {
             cfg.system.mmuDesign = "iommu";
         }}};
    const bench::GridResults results = bench::runGrid(
        SystemConfig{}, designs, bench::denseGrid(), &reporter,
        [](const bench::GridPoint &gp,
           const std::vector<bench::GridCell> &row) {
            const bench::GridCell &c = row.front();
            const double hits =
                double(c.result.mmu.tlbHits) /
                double(c.result.mmu.tlbHits + c.result.mmu.tlbMisses) *
                100.0;
            std::printf("%-12s %12.4f %14llu %14llu %12.1f\n",
                        gp.label().c_str(), c.normalized,
                        (unsigned long long)c.oracleCycles,
                        (unsigned long long)c.result.totalCycles, hits);
            std::fflush(stdout);
        });
    std::printf("\naverage normalized performance: %.4f "
                "(paper: ~0.05, i.e. 95%% overhead)\n",
                results.meanNormalized("IOMMU"));

    // Section III-C: sweeping the TLB cannot rescue the IOMMU.
    std::printf("\nTLB sweep on CNN-1 b01 (8 PTWs):\n");
    std::printf("%-12s %12s\n", "tlb_entries", "norm_perf");
    std::vector<bench::DesignPoint> tlb_designs;
    for (const std::size_t entries :
         {2048ul, 8192ul, 32768ul, 131072ul}) {
        tlb_designs.push_back(
            {"IOMMU_tlb" + std::to_string(entries),
             [entries](DenseExperimentConfig &cfg) {
                 cfg.system.mmu = baselineIommuConfig();
                 cfg.system.mmu->tlb.entries = entries;
             }});
    }
    const std::vector<bench::GridPoint> probe = {{WorkloadId::CNN1, 1}};
    const bench::GridResults tlb_results = bench::runGrid(
        SystemConfig{}, tlb_designs, probe, &reporter,
        [&](const bench::GridPoint &,
            const std::vector<bench::GridCell> &row) {
            for (std::size_t i = 0; i < row.size(); i++) {
                std::printf("%-12zu %12.4f\n",
                            std::vector<std::size_t>{2048, 8192, 32768,
                                                     131072}[i],
                            row[i].normalized);
            }
        });
    const double base_norm =
        tlb_results.normalized("IOMMU_tlb2048").front();
    const double big_norm =
        tlb_results.normalized("IOMMU_tlb131072").front();
    std::printf("128K-entry TLB gain over 2K: %.4f (paper: <0.02%%: "
                "bursts query the TLB\nbefore the walk returns, so "
                "capacity does not help)\n",
                big_norm - base_norm);
    reporter.finish();
    return 0;
}
