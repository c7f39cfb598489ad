/**
 * @file
 * Fig. 15: latency breakdown (GEMM / reduction / else / embedding
 * lookup) of NCF and DLRM inference at b01/b08/b64 on a 4-NPU system,
 * comparing the MMU-less host-staged-copy baseline against NeuMMU-
 * enabled NUMA over PCIe (slow) and the NPU fabric (fast). All bars
 * are normalized to the baseline of the same (model, batch).
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "workloads/embedding_workload.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 15",
                       "Embedding-layer latency breakdown: baseline "
                       "copy vs. NUMA(slow/fast)");
    bench::Reporter reporter("fig15", argc, argv);

    const EmbeddingSystemConfig cfg;
    const std::vector<EmbeddingModelSpec> models = {makeNcf(),
                                                    makeDlrm()};
    const std::vector<unsigned> batches = {1, 8, 64};
    const std::vector<EmbeddingPolicy> policies = {
        EmbeddingPolicy::HostStagedCopy, EmbeddingPolicy::NumaSlow,
        EmbeddingPolicy::NumaFast};

    std::printf("%-6s %-4s %-12s %8s %8s %8s %8s %8s\n", "model", "b",
                "policy", "GEMM", "Reduce", "Else", "Lookup", "total");

    std::vector<double> slow_savings, fast_savings;
    for (const EmbeddingModelSpec &spec : models) {
        for (const unsigned b : batches) {
            const double base_total =
                double(computeEmbeddingInference(
                           spec, b, EmbeddingPolicy::HostStagedCopy,
                           cfg)
                           .total());
            for (const EmbeddingPolicy pol : policies) {
                const LatencyBreakdown lat =
                    computeEmbeddingInference(spec, b, pol, cfg);
                char key[64];
                std::snprintf(key, sizeof(key), "%s.%s_b%02u",
                              policyName(pol).c_str(),
                              spec.name.c_str(), b);
                stats::Group &g = reporter.group(key);
                g.scalar("gemmCycles").set(double(lat.gemm));
                g.scalar("reductionCycles").set(double(lat.reduction));
                g.scalar("otherCycles").set(double(lat.other));
                g.scalar("lookupCycles")
                    .set(double(lat.embeddingLookup));
                g.scalar("normTotal").set(lat.total() / base_total);
                std::printf(
                    "%-6s %-4u %-12s %8.3f %8.3f %8.3f %8.3f %8.3f\n",
                    spec.name.c_str(), b, policyName(pol).c_str(),
                    lat.gemm / base_total, lat.reduction / base_total,
                    lat.other / base_total,
                    lat.embeddingLookup / base_total,
                    lat.total() / base_total);
                if (pol == EmbeddingPolicy::NumaSlow)
                    slow_savings.push_back(1.0 -
                                           lat.total() / base_total);
                if (pol == EmbeddingPolicy::NumaFast)
                    fast_savings.push_back(1.0 -
                                           lat.total() / base_total);
            }
        }
    }

    std::printf("\naverage latency reduction vs. baseline: "
                "NUMA(slow) %.0f%%, NUMA(fast) %.0f%%\n",
                bench::mean(slow_savings) * 100.0,
                bench::mean(fast_savings) * 100.0);
    std::printf("Paper reference: 31%% (slow) and 71%% (fast) average "
                "latency reduction; the\nbaseline bar is dominated by "
                "the CPU-staged embedding copies (Section V).\n");
    return reporter.finish();
}
