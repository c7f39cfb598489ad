/**
 * @file
 * Table I: prints the baseline NPU/IOMMU configuration actually used
 * by the simulator, so every other bench's parameters are auditable.
 */

#include <cstdio>

#include "bench_util.hh"
#include "mem/interconnect.hh"
#include "mem/memory_model.hh"
#include "mmu/mmu_core.hh"
#include "npu/npu_config.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Table I", "Baseline NPU configuration");
    bench::Reporter reporter("table1", argc, argv);

    const NpuConfig npu;
    const MemoryConfig mem;
    const MmuConfig iommu = baselineIommuConfig();
    const LinkConfig pcie = pcieLinkConfig();
    const LinkConfig nlink = npuLinkConfig();

    std::printf("Processor architecture\n");
    std::printf("  Systolic-array dimension              %u x %u\n",
                npu.systolicRows, npu.systolicCols);
    std::printf("  Operating frequency of PE             1 GHz "
                "(1 tick = 1 cycle)\n");
    std::printf("  Scratchpad size (activations/weights) %llu/%llu MB\n",
                (unsigned long long)(npu.iaSpmBytes / MiB),
                (unsigned long long)(npu.wSpmBytes / MiB));
    std::printf("  DMA burst size                        %llu B\n\n",
                (unsigned long long)npu.dmaBurstBytes);

    std::printf("Memory system\n");
    std::printf("  Number of memory channels             %u\n",
                mem.channels);
    std::printf("  Memory bandwidth                      %.0f GB/sec\n",
                mem.bytesPerCycle);
    std::printf("  Memory access latency                 %llu cycles\n\n",
                (unsigned long long)mem.accessLatency);

    std::printf("IOMMU\n");
    std::printf("  Number of TLB entries                 %zu\n",
                iommu.tlb.entries);
    std::printf("  TLB hit latency                       %llu cycles\n",
                (unsigned long long)iommu.tlb.hitLatency);
    std::printf("  Number of page-table walkers          %u\n",
                iommu.numPtws);
    std::printf("  Latency to walk page-tables           %llu cycles "
                "per level\n\n",
                (unsigned long long)iommu.walkLatencyPerLevel);

    std::printf("System interconnect\n");
    std::printf("  NUMA access latency                   %llu cycles\n",
                (unsigned long long)pcie.latency);
    std::printf("  CPU<->NPU interconnect bandwidth      %.0f GB/sec\n",
                pcie.bytesPerCycle);
    std::printf("  NPU<->NPU interconnect bandwidth      %.0f GB/sec\n\n",
                nlink.bytesPerCycle);

    const MmuConfig neummu = neuMmuConfig();
    std::printf("NeuMMU design point (Section IV-D)\n");
    std::printf("  Page-table walkers                    %u\n",
                neummu.numPtws);
    std::printf("  PRMB mergeable slots per PTW          %u\n",
                neummu.prmbSlots);
    std::printf("  Translation path register             1 per PTW "
                "(16 B)\n");

    stats::Group &p = reporter.group("npu");
    p.scalar("systolicRows").set(double(npu.systolicRows));
    p.scalar("systolicCols").set(double(npu.systolicCols));
    p.scalar("iaSpmBytes").set(double(npu.iaSpmBytes));
    p.scalar("wSpmBytes").set(double(npu.wSpmBytes));
    p.scalar("dmaBurstBytes").set(double(npu.dmaBurstBytes));
    stats::Group &m = reporter.group("memory");
    m.scalar("channels").set(double(mem.channels));
    m.scalar("bytesPerCycle").set(mem.bytesPerCycle);
    m.scalar("accessLatency").set(double(mem.accessLatency));
    stats::Group &i = reporter.group("iommu");
    i.scalar("tlbEntries").set(double(iommu.tlb.entries));
    i.scalar("tlbHitLatency").set(double(iommu.tlb.hitLatency));
    i.scalar("numPtws").set(double(iommu.numPtws));
    i.scalar("walkLatencyPerLevel")
        .set(double(iommu.walkLatencyPerLevel));
    stats::Group &l = reporter.group("interconnect");
    l.scalar("numaLatency").set(double(pcie.latency));
    l.scalar("pcieBytesPerCycle").set(pcie.bytesPerCycle);
    l.scalar("npuLinkBytesPerCycle").set(nlink.bytesPerCycle);
    stats::Group &n = reporter.group("neummu");
    n.scalar("numPtws").set(double(neummu.numPtws));
    n.scalar("prmbSlots").set(double(neummu.prmbSlots));
    return reporter.finish();
}
