/**
 * @file
 * Fig. 13: TPreg (single-entry TPC) tag-match rate at the L4/L3/L2
 * indices across the dense grid, under the nominal NeuMMU.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 13",
                       "TPreg tag-match rate at L4/L3/L2 indices "
                       "(single entry per PTW)");
    bench::Reporter reporter("fig13", argc, argv);

    std::vector<double> l4s, l3s, l2s;
    const std::vector<bench::DesignPoint> designs = {
        {"NeuMMU", {{"mmu.design", "neummu"}}}};

    std::printf("%-12s %10s %10s %10s %12s\n", "workload", "L4idx",
                "L3idx", "L2idx", "consults");
    bench::runGrid(
        SystemConfig{}, designs, bench::denseGrid(), &reporter,
        [&](const bench::GridPoint &gp,
            const std::vector<bench::GridCell> &row) {
            const bench::GridCell &r = row.front();
            const double consults = double(r.tpreg.consults);
            const double l4 = double(r.tpreg.hits[0]) / consults;
            const double l3 = double(r.tpreg.hits[1]) / consults;
            const double l2 = double(r.tpreg.hits[2]) / consults;
            l4s.push_back(l4);
            l3s.push_back(l3);
            l2s.push_back(l2);
            stats::Group &g =
                reporter.group("NeuMMU." + gp.key() + ".tpreg");
            g.scalar("l4HitRate").set(l4);
            g.scalar("l3HitRate").set(l3);
            g.scalar("l2HitRate").set(l2);
            g.scalar("consults").set(consults);
            std::printf("%-12s %9.1f%% %9.1f%% %9.1f%% %12llu\n",
                        gp.label().c_str(), l4 * 100, l3 * 100,
                        l2 * 100,
                        (unsigned long long)r.tpreg.consults);
            std::fflush(stdout);
        });
    std::printf("\n%-12s %9.1f%% %9.1f%% %9.1f%%\n", "average",
                bench::mean(l4s) * 100, bench::mean(l3s) * 100,
                bench::mean(l2s) * 100);
    std::printf("\nPaper reference: L4/L3 ~99.5%%, L2 ~63.1%% -- the "
                "upper path is stable across\na tile stream while the "
                "2 MB-granular L2 tag churns as PTWs round-robin over\n"
                "the streamed pages (Section IV-C).\n");
    return reporter.finish();
}
