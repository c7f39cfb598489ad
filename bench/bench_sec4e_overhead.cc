/**
 * @file
 * Section IV-E: implementation overhead of the NeuMMU additions --
 * the SRAM storage arithmetic the paper feeds into CACTI 6.5 and the
 * FPGA synthesis. (CACTI/FPGA themselves are offline tools; the byte
 * counts below are the quantities the paper reports area/power for.)
 */

#include <cstdio>

#include "bench_util.hh"
#include "mmu/energy_model.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Section IV-E",
                       "NeuMMU implementation overhead (SRAM storage)");
    bench::Reporter reporter("sec4e", argc, argv);

    const NeuMmuSramCost cost;
    std::printf("PTWs: %u, PRMB slots/PTW: %u\n\n", cost.numPtws,
                cost.prmbSlotsPerPtw);
    std::printf("%-34s %10s\n", "structure", "bytes");
    std::printf("%-34s %10llu   (8 B x 32 x 128 = 32 KB)\n",
                "PRMB (all PTWs)",
                (unsigned long long)cost.prmbBytes());
    std::printf("%-34s %10llu   (16 B x 128 = 2 KB)\n",
                "TPreg (all PTWs)",
                (unsigned long long)cost.tpregTotalBytes());
    std::printf("%-34s %10llu   (6 B x 128 entries)\n",
                "PTS (fully associative)",
                (unsigned long long)cost.ptsBytes());
    std::printf("%-34s %10llu\n", "total",
                (unsigned long long)cost.totalBytes());
    stats::Group &g = reporter.group("sram");
    g.scalar("prmbBytes").set(double(cost.prmbBytes()));
    g.scalar("tpregBytes").set(double(cost.tpregTotalBytes()));
    g.scalar("ptsBytes").set(double(cost.ptsBytes()));
    g.scalar("totalBytes").set(double(cost.totalBytes()));

    std::printf("\nPaper reference: 32 KB + 2 KB + 768 B of SRAM; "
                "0.10 mm^2 and 13.65 mW\nleakage at 32 nm via CACTI "
                "6.5; <0.01%% of a VCU1525 FPGA's resources.\n");
    return reporter.finish();
}
