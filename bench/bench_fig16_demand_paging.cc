/**
 * @file
 * Fig. 16: demand paging the missing (remote) embeddings into local
 * NPU memory, comparing the baseline IOMMU against NeuMMU under 4 KB
 * and 2 MB pages, normalized to an oracular MMU with 4 KB demand
 * paging (see EXPERIMENTS.md for the normalization note).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "system/embedding_system.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 16",
                       "Demand paging sparse embeddings: 4 KB vs. "
                       "2 MB pages, IOMMU vs. NeuMMU");
    bench::Reporter reporter("fig16", argc, argv);

    const EmbeddingSystemConfig cfg;
    const std::vector<EmbeddingModelSpec> models = {makeNcf(),
                                                    makeDlrm()};
    const std::vector<unsigned> batches = {1, 4, 8};

    std::printf("%-6s %-4s %-10s %-10s %10s %10s %12s %12s\n", "model",
                "b", "pages", "mmu", "norm_perf", "faults",
                "migrated", "useful");

    std::vector<double> small_iommu, small_neummu, large_neummu;
    for (const EmbeddingModelSpec &spec : models) {
        for (const unsigned b : batches) {
            const Tick oracle =
                runDemandPaging(spec, b, "oracle", smallPageShift, cfg)
                    .totalCycles;
            for (const unsigned shift :
                 {smallPageShift, largePageShift}) {
                for (const std::string mmu : {"iommu", "neummu"}) {
                    const DemandPagingResult r =
                        runDemandPaging(spec, b, mmu, shift, cfg);
                    const double norm =
                        double(oracle) / double(r.totalCycles);
                    char key[64];
                    std::snprintf(key, sizeof(key), "%s_%s.%s_b%02u",
                                  translationDesign(mmu).title,
                                  shift == smallPageShift ? "4KB"
                                                          : "2MB",
                                  spec.name.c_str(), b);
                    stats::Group &g = reporter.group(key);
                    g.scalar("normPerf").set(norm);
                    g.scalar("cycles").set(double(r.totalCycles));
                    g.scalar("faults").set(double(r.faults));
                    g.scalar("migratedBytes")
                        .set(double(r.migratedBytes));
                    g.scalar("usefulBytes")
                        .set(double(r.usefulBytes));
                    std::printf("%-6s %-4u %-10s %-10s %10.4f %10llu "
                                "%10.1fMB %10.2fMB\n",
                                spec.name.c_str(), b,
                                shift == smallPageShift ? "4KB" : "2MB",
                                translationDesign(mmu).title, norm,
                                (unsigned long long)r.faults,
                                double(r.migratedBytes) / double(MiB),
                                double(r.usefulBytes) / double(MiB));
                    if (shift == smallPageShift && mmu == "iommu")
                        small_iommu.push_back(norm);
                    if (shift == smallPageShift && mmu == "neummu")
                        small_neummu.push_back(norm);
                    if (shift == largePageShift && mmu == "neummu")
                        large_neummu.push_back(norm);
                }
            }
            std::fflush(stdout);
        }
    }

    std::printf("\naverages: 4KB IOMMU %.2f (paper ~0.17), 4KB NeuMMU "
                "%.2f (paper ~0.96),\n2MB NeuMMU %.3f (paper ~0.01: "
                "large pages migrate ~512x the useful bytes)\n",
                bench::mean(small_iommu), bench::mean(small_neummu),
                bench::mean(large_neummu));
    reporter.finish();
    return 0;
}
