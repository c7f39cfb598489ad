/**
 * @file
 * Fig. 6: maximum and average number of distinct 4 KB pages accessed
 * per DMA tile fetch, for every (workload, batch) point.
 */

#include <algorithm>
#include <cstdio>

#include "bench_util.hh"
#include "workloads/tiler.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader(
        "Figure 6",
        "Page divergence per DMA tile (4 KB pages): max / avg");
    bench::Reporter reporter("fig06", argc, argv);

    const NpuConfig npu;
    const Tiler tiler(npu);
    const Addr ia_base = Addr(0x100) << 30;
    const Addr w_base = Addr(0x200) << 30;

    std::printf("%-12s %10s %10s %10s\n", "workload", "max", "avg",
                "tiles");
    for (const bench::GridPoint &gp : bench::denseGrid()) {
        const DnnModel wl = makeWorkload(gp.workload, gp.batch);
        std::uint64_t max_div = 0, tiles = 0;
        double sum_div = 0.0;
        for (const LayerSpec &layer : wl.layers) {
            const LayerTiling tiling =
                tiler.tileLayer(layer, ia_base, w_base);
            for (const TileWork &tile : tiling.tiles) {
                const std::uint64_t div =
                    pageDivergence(tile, smallPageShift);
                max_div = std::max(max_div, div);
                sum_div += double(div);
                tiles++;
            }
        }
        std::printf("%-12s %10llu %10.0f %10llu\n", gp.label().c_str(),
                    (unsigned long long)max_div, sum_div / double(tiles),
                    (unsigned long long)tiles);
        stats::Group &g = reporter.group("divergence." + gp.key());
        g.scalar("maxPages").set(double(max_div));
        g.scalar("avgPages").set(sum_div / double(tiles));
        g.scalar("tiles").set(double(tiles));
    }

    std::printf("\nPaper reference: per-tile page divergence reaches "
                "~1-2K pages (max) with\naverages of hundreds to >1K, "
                "motivating translation bursts (Section III-C).\n");
    return reporter.finish();
}
