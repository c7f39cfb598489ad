/**
 * @file
 * Fig. 14: trace of the virtual-address regions accessed while
 * consecutive tiles are requested by the DMA unit (AlexNet). Shows
 * the two VA bands (IA arena low, W arena high) and the streaming,
 * non-interleaved access within each tile.
 *
 * With --record=<path.jsonl> the bench instead simulates a workload
 * (--workload=<factory spec>, default dense:model=CNN1) on the
 * baseline NeuMMU machine and writes its full translation-attempt
 * stream as a replayable JSONL trace (see TraceWorkload).
 */

#include <cstdio>
#include <exception>

#include "bench_util.hh"
#include "workloads/tiler.hh"
#include "workloads/trace_workload.hh"

using namespace neummu;

static int
recordTrace(bench::Reporter &reporter)
{
    const std::string path = reporter.args().get("record", "");
    const std::string spec =
        reporter.args().get("workload", "dense:model=CNN1,batch=1");
    bench::printHeader("Figure 14 (record mode)",
                       "JSONL translation trace of '" + spec + "'");

    SystemConfig cfg;
    cfg.mmuDesign = "neummu";
    System system(cfg);
    TraceRecorder recorder;
    recorder.attach(system, 0);

    Scheduler scheduler(system);
    scheduler.add(makeWorkloadFromSpecChecked(spec), 0);
    const SchedulerResult result = scheduler.run();

    if (!recorder.write(path))
        return 1;
    std::printf("ran '%s' for %llu cycles; wrote %zu attempts to %s\n"
                "replay with: trace:path=%s\n",
                spec.c_str(),
                (unsigned long long)result.totalCycles,
                recorder.entries().size(), path.c_str(), path.c_str());
    stats::Group &g = reporter.group("record");
    g.scalar("cycles").set(double(result.totalCycles));
    g.scalar("attempts").set(double(recorder.entries().size()));
    return reporter.finish();
}

int
main(int argc, char **argv)
try {
    bench::Reporter reporter("fig14", argc, argv);
    if (reporter.args().has("record"))
        return recordTrace(reporter);

    bench::printHeader("Figure 14",
                       "Virtual addresses accessed across consecutive "
                       "tiles (AlexNet conv2, b01)");

    const NpuConfig npu;
    const Tiler tiler(npu);
    const Addr ia_base = Addr(0x100) << 30;
    const Addr w_base = ia_base + (16ull << 20);

    const DnnModel wl = makeWorkload(WorkloadId::CNN1, 1);
    // conv2 exercises both arenas with multiple tiles.
    const LayerSpec &layer = wl.layers[1];
    const LayerTiling tiling = tiler.tileLayer(layer, ia_base, w_base);

    std::printf("IA arena base: 0x%llx\nW  arena base: 0x%llx\n\n",
                (unsigned long long)ia_base,
                (unsigned long long)w_base);
    std::printf("%-6s %-6s %-18s %-18s %10s\n", "tile", "kind",
                "va_start", "va_end", "bytes");

    const std::size_t tiles_to_show =
        tiling.tiles.size() < 4 ? tiling.tiles.size() : 4;
    for (std::size_t t = 0; t < tiles_to_show; t++) {
        const TileWork &tile = tiling.tiles[t];
        auto show = [&](const char *kind, const std::vector<VaRun> &runs) {
            // Summarize each run group by its envelope; individual
            // runs stream monotonically within it.
            if (runs.empty())
                return;
            Addr lo = runs.front().va;
            Addr hi = runs.front().va + runs.front().bytes;
            std::uint64_t bytes = 0;
            for (const VaRun &run : runs) {
                lo = run.va < lo ? run.va : lo;
                hi = run.va + run.bytes > hi ? run.va + run.bytes : hi;
                bytes += run.bytes;
            }
            std::printf("%-6zu %-6s 0x%-16llx 0x%-16llx %10llu\n", t,
                        kind, (unsigned long long)lo,
                        (unsigned long long)hi,
                        (unsigned long long)bytes);
            stats::Group &g = reporter.group(
                "tile" + std::to_string(t) + "." + kind);
            g.scalar("vaStart").set(double(lo));
            g.scalar("vaEnd").set(double(hi));
            g.scalar("bytes").set(double(bytes));
        };
        show("IA", tile.iaRuns);
        show("W", tile.wRuns);
    }

    std::printf("\nPer-translation VA stream of tile 0 (first 16 "
                "bursts):\n%-8s %-18s\n", "seq", "va");
    // Reconstruct the burst stream exactly as the DMA issues it.
    unsigned seq = 0;
    const TileWork &t0 = tiling.tiles.front();
    for (const auto *runs : {&t0.iaRuns, &t0.wRuns}) {
        for (const VaRun &run : *runs) {
            for (Addr va = run.va;
                 va < run.va + run.bytes && seq < 16;
                 va += npu.dmaBurstBytes) {
                std::printf("%-8u 0x%-18llx\n", seq++,
                            (unsigned long long)va);
            }
        }
    }

    std::printf("\nPaper reference: accesses stay inside a handful of "
                "large VA segments, stream\nmonotonically, and never "
                "interleave IA with W inside a tile -- the three\n"
                "observations motivating TPreg (Section IV-C).\n");
    return reporter.finish();
} catch (const std::exception &e) {
    NEUMMU_FATAL(e.what());
}
