/**
 * @file
 * Section VI-C: robustness of NeuMMU across the design space (PRMB
 * slots 1..32, PTWs 64..256, TLB 128..2048) and across large batch
 * sizes (32/64/128) on each workload's common layer configuration.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Section VI-C",
                       "NeuMMU sensitivity: design-space sweep and "
                       "large-batch common layers");
    bench::Reporter reporter("sec6c", argc, argv);

    // Design-space sweep over a representative workload subset (one
    // compute-bound CNN point, one memory-bound RNN point).
    const std::vector<bench::GridPoint> subset = {
        {WorkloadId::CNN1, 4}, {WorkloadId::CNN3, 1},
        {WorkloadId::RNN2, 4}, {WorkloadId::RNN3, 8},
    };

    struct Knobs
    {
        unsigned prmb;
        unsigned ptws;
        std::size_t tlb;
    };
    std::vector<Knobs> knobs;
    std::vector<bench::DesignPoint> designs;
    for (const unsigned prmb : {1u, 8u, 32u}) {
        for (const unsigned ptws : {64u, 128u, 256u}) {
            for (const std::size_t tlb : {128ul, 512ul, 2048ul}) {
                knobs.push_back(Knobs{prmb, ptws, tlb});
                designs.push_back(
                    {"prmb" + std::to_string(prmb) + "_ptw" +
                         std::to_string(ptws) + "_tlb" +
                         std::to_string(tlb),
                     {{"mmu.design", "neummu"},
                      {"mmu.prmbSlots", std::to_string(prmb)},
                      {"mmu.numPtws", std::to_string(ptws)},
                      {"mmu.tlb.entries", std::to_string(tlb)}}});
            }
        }
    }

    std::printf("(a) design-space sweep (normalized performance)\n");
    std::printf("%-10s %-8s %-8s %12s\n", "prmb", "ptws", "tlb",
                "min..avg");
    const bench::GridResults results =
        bench::runGrid(SystemConfig{}, designs, subset, &reporter);

    std::vector<double> all;
    double worst = 1.0;
    for (std::size_t i = 0; i < designs.size(); i++) {
        const std::vector<double> norms =
            results.normalized(designs[i].name);
        const double lo = *std::min_element(norms.begin(), norms.end());
        const double avg = bench::mean(norms);
        worst = std::min(worst, lo);
        all.insert(all.end(), norms.begin(), norms.end());
        std::printf("%-10u %-8u %-8zu %6.3f..%-6.3f\n", knobs[i].prmb,
                    knobs[i].ptws, knobs[i].tlb, lo, avg);
        std::fflush(stdout);
    }
    std::printf("across the sweep: worst %.1f%%, average %.1f%% of "
                "oracle (paper: never <73%%, avg 97%%)\n\n",
                worst * 100.0, bench::mean(all) * 100.0);

    // Large batches on the common layer configurations.
    std::printf("(b) large-batch common layers (normalized "
                "performance)\n");
    std::printf("%-12s %-6s %10s %10s\n", "workload", "batch", "IOMMU",
                "NeuMMU");
    std::vector<double> iommu_all, neummu_all;
    for (const WorkloadId id : allWorkloads()) {
        for (const unsigned batch : {32u, 64u, 128u}) {
            DenseDnnWorkloadConfig wl;
            wl.workload = id;
            wl.batch = batch;
            wl.layerOverride = makeCommonLayer(id, batch).layers;
            const auto cycles = [&wl](const char *design) {
                SystemConfig sys;
                sys.mmuDesign = design;
                return double(bench::runDense(sys, wl).cycles);
            };

            const double oracle = cycles("oracle");
            const double iommu = oracle / cycles("iommu");
            const double neummu = oracle / cycles("neummu");

            iommu_all.push_back(iommu);
            neummu_all.push_back(neummu);
            std::printf("%-12s %-6u %10.4f %10.4f\n",
                        workloadName(id).c_str(), batch, iommu, neummu);
            std::fflush(stdout);
        }
    }
    std::printf("\nlarge-batch averages: IOMMU %.1f%% of oracle "
                "(paper: 5.9%%), NeuMMU %.1f%% (paper: 99.9%%)\n",
                bench::mean(iommu_all) * 100.0,
                bench::mean(neummu_all) * 100.0);

    stats::Group &g = reporter.group("largeBatch");
    g.scalar("iommuMeanNorm").set(bench::mean(iommu_all));
    g.scalar("neummuMeanNorm").set(bench::mean(neummu_all));
    return reporter.finish();
}
