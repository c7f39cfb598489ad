/**
 * @file
 * Fig. 7: number of address translations requested by the DMA within
 * consecutive 1000-cycle windows, over the full run of (a) CNN-1 and
 * (b) RNN-1 at batch 1 (4 KB pages). The DMA issues one translation
 * per cycle, so 1000 marks a full-rate burst.
 */

#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace neummu;

namespace {

void
traceWorkload(WorkloadId id, bench::Reporter &reporter)
{
    std::vector<std::uint64_t> windows;
    // The burst pattern is a property of the DMA/workload; run under
    // the oracular MMU so the issue stream is not throttled.
    SystemConfig sys;
    sys.mmuDesign = "oracle";
    DenseDnnWorkloadConfig wl = bench::denseWorkload({id, 1});
    wl.translationHook = [&](Tick t, Addr) {
        const std::size_t w = std::size_t(t / 1000);
        if (windows.size() <= w)
            windows.resize(w + 1, 0);
        windows[w]++;
    };
    const bench::GridCell r = bench::runDense(sys, std::move(wl));

    std::printf("workload %s: %llu cycles, %llu translations\n",
                workloadName(id).c_str(), (unsigned long long)r.cycles,
                (unsigned long long)r.mmu.requests);
    std::printf("%-12s %s\n", "cycle", "translations_in_window");
    // Print a decimated series (every 4th window) to keep the output
    // plottable yet bounded.
    for (std::size_t w = 0; w < windows.size(); w += 4) {
        std::printf("%-12llu %llu\n",
                    (unsigned long long)(w * 1000),
                    (unsigned long long)windows[w]);
    }

    std::uint64_t full_rate = 0;
    for (const std::uint64_t c : windows)
        full_rate += (c >= 900);
    std::printf("windows at >=900/1000 (full-rate burst): %llu of %zu\n\n",
                (unsigned long long)full_rate, windows.size());

    stats::Group &g = reporter.group("bursts." + workloadName(id));
    g.scalar("cycles").set(double(r.cycles));
    g.scalar("translations").set(double(r.mmu.requests));
    g.scalar("windows").set(double(windows.size()));
    g.scalar("fullRateWindows").set(double(full_rate));
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader("Figure 7",
                       "Translations requested per 1000-cycle window "
                       "(CNN-1 and RNN-1, b01)");
    bench::Reporter reporter("fig07", argc, argv);
    traceWorkload(WorkloadId::CNN1, reporter);
    traceWorkload(WorkloadId::RNN1, reporter);
    std::printf("Paper reference: both workloads show sustained bursts "
                "at the 1/cycle issue\nlimit separated by compute "
                "phases (Fig. 7a/7b).\n");
    return reporter.finish();
}
