/**
 * @file
 * Example: two NPUs sharing one IOMMU through the TranslationRouter
 * (the multi-accelerator scenario of Section IV-B, which the paper
 * leaves as future work). Both NPUs stream a tensor fetch through
 * their own DMA engine; every translation funnels into the one
 * MmuCore, arbitrated by the configured router policy. Per-client
 * translation activity comes out of the System's StatsRegistry.
 *
 * Usage:
 *   multi_npu_shared_iommu [--mmu=iommu|neummu] [--policy=shared|part]
 *                          [--mbytes=8] [--json=<path>]
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/arg_parser.hh"
#include "system/system.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const std::string mmu_arg = args.get("mmu", "neummu");
    const std::string policy_arg = args.get("policy", "shared");
    if (mmu_arg != "neummu" && mmu_arg != "iommu")
        NEUMMU_FATAL("--mmu must be 'iommu' or 'neummu', got '" +
                     mmu_arg + "'");
    if (policy_arg != "shared" && policy_arg != "part")
        NEUMMU_FATAL("--policy must be 'shared' or 'part', got '" +
                     policy_arg + "'");
    const bool neummu = mmu_arg == "neummu";
    const bool partitioned = policy_arg == "part";
    const std::uint64_t mbytes =
        std::uint64_t(args.getInt("mbytes", 8));

    // The whole machine is one config: two NPUs, one routed MMU.
    SystemConfig cfg;
    cfg.name = "soc";
    cfg.numNpus = 2;
    cfg.mmuDesign = neummu ? "neummu" : "iommu";
    cfg.routerPolicy = partitioned ? RouterPolicy::Partitioned
                                   : RouterPolicy::Shared;
    System sys(cfg);

    std::printf("2-NPU system, shared %s, %s walker pool, %llu MB "
                "per-NPU stream\n\n",
                translationDesign(cfg.mmuDesign).title,
                partitioned ? "partitioned" : "shared",
                (unsigned long long)mbytes);

    // Each NPU streams its own tensor; both fetches start at t=0 and
    // contend for the one walker pool.
    unsigned done = 0;
    Tick finish[2] = {0, 0};
    for (unsigned npu = 0; npu < sys.numNpus(); npu++) {
        const Segment seg = sys.addressSpace().allocateBacked(
            "npu" + std::to_string(npu) + ".tensor", mbytes * MiB,
            sys.hbmNode(npu), cfg.pageShift);
        sys.dma(npu).fetch({VaRun{seg.base, seg.bytes}},
                           [&, npu](Tick at) {
                               finish[npu] = at;
                               done++;
                           });
    }
    sys.run();
    NEUMMU_ASSERT(done == 2, "a fetch never completed");

    std::printf("%-6s %14s %12s %12s %12s %14s\n", "client",
                "finish_cyc", "requests", "responses", "blocked",
                "capRejections");
    for (unsigned npu = 0; npu < sys.numNpus(); npu++) {
        const MmuCounts &c = sys.router().clientCounts(npu);
        std::printf("npu%-3u %14llu %12llu %12llu %12llu %14llu\n",
                    npu, (unsigned long long)finish[npu],
                    (unsigned long long)c.requests,
                    (unsigned long long)c.responses,
                    (unsigned long long)c.blockedIssues,
                    (unsigned long long)
                        sys.router().capRejections(npu));
    }

    // The same numbers through the central registry: every component
    // (MMU, router ports, per-NPU DMA/memory) registered its group.
    std::printf("\nper-client translation stats from the "
                "StatsRegistry:\n");
    for (unsigned npu = 0; npu < sys.numNpus(); npu++) {
        const std::string group_name =
            "soc.router.client" + std::to_string(npu);
        const stats::Group *g =
            sys.statsRegistry().find(group_name);
        NEUMMU_ASSERT(g != nullptr, "router group missing");
        g->dump(std::cout);
    }

    const std::string json_path = args.get("json", "");
    if (!json_path.empty() && sys.writeStatsJsonFile(json_path))
        std::printf("wrote full stats JSON to %s\n", json_path.c_str());

    std::printf("\nTakeaway: the router makes the shared-IOMMU SoC a "
                "first-class config --\nswap --policy/--mmu to explore "
                "the QoS space the paper leaves open.\n");
    return 0;
}
