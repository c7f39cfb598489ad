/**
 * @file
 * Example: serve a DLRM/NCF recommender on a 4-NPU system and compare
 * every remote-embedding strategy the paper discusses -- the MMU-less
 * host-staged copy, NeuMMU-enabled fine-grained NUMA over PCIe and
 * over the NPU fabric, and demand paging at both page sizes.
 *
 * Usage:
 *   recommender_numa [--model=DLRM|NCF] [--batch=64] [--npus=4]
 */

#include <cstdio>
#include <string>

#include "common/arg_parser.hh"
#include "system/embedding_system.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const std::string model_name = args.get("model", "DLRM");
    const unsigned batch = unsigned(args.getInt("batch", 64));

    EmbeddingSystemConfig cfg;
    cfg.numNpus = unsigned(args.getInt("npus", 4));

    const EmbeddingModelSpec spec =
        (model_name == "NCF") ? makeNcf() : makeDlrm();

    std::printf("%s inference, batch %u, %u NPUs\n", spec.name.c_str(),
                batch, cfg.numNpus);
    std::printf("embedding tables: %zu tables, %.1f GB total, "
                "%llu lookups/sample\n\n",
                spec.tables.size(),
                double(spec.totalTableBytes()) / double(GiB),
                (unsigned long long)spec.lookupsPerSample());

    // Part 1: all-to-all gathers (Fig. 15).
    std::printf("--- remote gathers (all-to-all, Fig. 15) ---\n");
    std::printf("%-16s %12s %12s %10s\n", "policy", "total_cyc",
                "lookup_cyc", "vs_base");
    const Tick base_total =
        runEmbeddingInference(spec, batch,
                              EmbeddingPolicy::HostStagedCopy, cfg)
            .total();
    for (const EmbeddingPolicy pol :
         {EmbeddingPolicy::HostStagedCopy, EmbeddingPolicy::NumaSlow,
          EmbeddingPolicy::NumaFast}) {
        const LatencyBreakdown lat =
            runEmbeddingInference(spec, batch, pol, cfg);
        std::printf("%-16s %12llu %12llu %9.2fx\n",
                    policyName(pol).c_str(),
                    (unsigned long long)lat.total(),
                    (unsigned long long)lat.embeddingLookup,
                    double(base_total) / double(lat.total()));
    }

    // Part 2: demand paging the misses instead (Fig. 16).
    std::printf("\n--- demand paging the remote embeddings "
                "(Fig. 16) ---\n");
    std::printf("%-10s %-10s %12s %10s %12s\n", "pages", "mmu",
                "total_cyc", "faults", "migrated");
    const unsigned paging_batch = batch > 8 ? 8 : batch;
    for (const unsigned shift : {smallPageShift, largePageShift}) {
        for (const std::string mmu : {"oracle", "iommu", "neummu"}) {
            const DemandPagingResult r =
                runDemandPaging(spec, paging_batch, mmu, shift, cfg);
            std::printf("%-10s %-10s %12llu %10llu %10.1fMB\n",
                        shift == smallPageShift ? "4KB" : "2MB",
                        translationDesign(mmu).title,
                        (unsigned long long)r.totalCycles,
                        (unsigned long long)r.faults,
                        double(r.migratedBytes) / double(MiB));
        }
    }
    std::printf("\n(demand paging runs at batch %u; see "
                "EXPERIMENTS.md for the normalization note)\n",
                paging_batch);
    return 0;
}
