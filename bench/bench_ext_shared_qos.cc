/**
 * @file
 * Extension (paper's stated future work, Section IV-B): MMU resource
 * allocation when multiple NPUs share one IOMMU. Two NPUs issue tile
 * fetches through a single walker pool; a bursty neighbor starves a
 * well-behaved client unless the walker pool is partitioned.
 *
 * Setup: client 0 fetches a fixed 256 KB tile that arrives in the
 * middle of client 1's 16 MB streaming burst. We report client 0's
 * fetch latency solo, shared (free-for-all), and shared with a
 * partitioned walker pool. The machine is a two-NPU System whose
 * router fans the one MmuCore out to both DMA engines.
 */

#include <cstdio>
#include <utility>

#include "bench_util.hh"

using namespace neummu;

namespace {

/**
 * Client 0 fetches a small 256 KB tile that arrives at t=20000, in
 * the middle of client 1's 16 MB streaming burst. Returns client 0's
 * fetch latency (completion - 20000).
 */
Tick
runShared(const MmuConfig &mmu_cfg, RouterPolicy policy,
          bool neighbor_active)
{
    // SoC topology: both NPUs share one IOMMU *and* one system
    // memory, as in the heterogeneous systems the paper describes.
    SystemConfig sys_cfg;
    sys_cfg.name = "qos";
    sys_cfg.numNpus = 2;
    sys_cfg.mmu = mmu_cfg;
    sys_cfg.routerPolicy = policy;
    sys_cfg.sharedMemory = true;
    sys_cfg.npu.dmaBurstBytes = 1024;
    System sys(sys_cfg);

    const Segment seg0 = sys.addressSpace().allocateBacked(
        "c0", 256 * KiB, sys.hbmNode(0), smallPageShift);
    const Segment seg1 = sys.addressSpace().allocateBacked(
        "c1", 16 * MiB, sys.hbmNode(1), smallPageShift);

    constexpr Tick victim_start = 20000;
    Tick done0 = 0;
    if (neighbor_active)
        sys.dma(1).fetch({VaRun{seg1.base, seg1.bytes}}, [](Tick) {});
    sys.eventQueue().schedule(victim_start, [&] {
        sys.dma(0).fetch({VaRun{seg0.base, seg0.bytes}},
                         [&](Tick at) { done0 = at; });
    });
    sys.run();
    NEUMMU_ASSERT(done0 >= victim_start, "victim fetch lost");
    return done0 - victim_start;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader("Extension: shared-IOMMU QoS",
                       "Two NPUs on one walker pool (paper future "
                       "work, Section IV-B)");
    bench::Reporter reporter("ext_shared_qos", argc, argv);

    std::printf("%-22s %14s %14s %12s\n", "config", "solo_cyc",
                "shared_cyc", "slowdown");
    struct Engine
    {
        const char *name;
        const char *key;
        MmuConfig cfg;
    };
    const Engine engines[] = {
        {"IOMMU(8 PTW)", "IOMMU", baselineIommuConfig()},
        {"NeuMMU(128 PTW)", "NeuMMU", neuMmuConfig()},
    };
    for (const auto &[name, key, mmu_cfg] : engines) {
        const Tick solo =
            runShared(mmu_cfg, RouterPolicy::Shared, false);
        const Tick shared =
            runShared(mmu_cfg, RouterPolicy::Shared, true);
        const Tick part =
            runShared(mmu_cfg, RouterPolicy::Partitioned, true);
        std::printf("%-22s %14llu %14llu %11.2fx\n", name,
                    (unsigned long long)solo,
                    (unsigned long long)shared,
                    double(shared) / double(solo));
        std::printf("%-22s %14s %14llu %11.2fx\n", "  + partitioned",
                    "-", (unsigned long long)part,
                    double(part) / double(solo));

        stats::Group &g = reporter.group(key);
        g.scalar("soloCycles").set(double(solo));
        g.scalar("sharedCycles").set(double(shared));
        g.scalar("partitionedCycles").set(double(part));
        g.scalar("sharedSlowdown").set(double(shared) / double(solo));
        g.scalar("partitionedSlowdown")
            .set(double(part) / double(solo));
    }

    std::printf("\nTakeaway: with a shared pool, the neighbor's burst "
                "inflates the victim's\nfetch latency; partitioning "
                "the walkers bounds the interference, and NeuMMU's\n"
                "large pool keeps even the partitioned share "
                "sufficient -- the provisioning\nargument the paper "
                "makes when leaving QoS policy as future work.\n");
    return reporter.finish();
}
