/**
 * @file
 * Shared helpers for the per-figure bench binaries: the standard
 * (workload x batch) grid of the paper's evaluation, runDense (one
 * DenseDnnWorkload on NPU 0 of a System, through the Scheduler), the
 * runGrid sweep entry point, and the Reporter that records every grid
 * cell in a StatsRegistry and serves the common --json=<path> output
 * mode.
 *
 * A grid design point is data: a list of ConfigBinder overrides
 * applied to the grid's base SystemConfig, the same key=value pairs a
 * sweep manifest's "set" carries. runGrid executes through the
 * SweepEngine (src/sweep/), so every grid bench is parallel by
 * default: each cell builds its own System on a worker thread and the
 * per-System determinism certified by the golden matrix makes the
 * results identical to serial execution. Every bench with a Reporter
 * accepts --jobs=N (0 = hardware concurrency, the default); rows
 * still print live, in grid order.
 */

#ifndef NEUMMU_BENCH_BENCH_UTIL_HH
#define NEUMMU_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.hh"
#include "common/logging.hh"
#include "common/stats_registry.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"
#include "workloads/models.hh"
#include "workloads/workload_factory.hh"

namespace neummu {
namespace bench {

// One implementation of the aggregate helpers lives in common/stats.
using stats::geomean;
using stats::mean;

/** The paper's dense evaluation grid: 6 workloads x b01/b04/b08. */
struct GridPoint
{
    WorkloadId workload;
    unsigned batch;

    std::string
    label() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s b%02u",
                      workloadName(workload).c_str(), batch);
        return buf;
    }

    /** Label without spaces, for stats-group and JSON keys. */
    std::string
    key() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s_b%02u",
                      workloadName(workload).c_str(), batch);
        return buf;
    }
};

inline std::vector<GridPoint>
denseGrid(std::vector<unsigned> batches = {1, 4, 8})
{
    std::vector<GridPoint> grid;
    for (const WorkloadId id : allWorkloads())
        for (const unsigned b : batches)
            grid.push_back(GridPoint{id, b});
    return grid;
}

/**
 * One named design point of a sweep: ConfigBinder overrides applied,
 * in order, to the grid's base machine (e.g. {{"mmu.design",
 * "iommu"}, {"mmu.prmbSlots", "8"}}; see neummu_sweep --list-keys).
 */
struct DesignPoint
{
    std::string name;
    sweep::OverrideList set;
};

/**
 * What one dense run measured, plus its grid coordinates when it is
 * a runGrid cell (point/design/oracleCycles/normalized stay empty
 * for a standalone runDense).
 */
struct GridCell
{
    GridPoint point{};
    std::string design;
    Tick oracleCycles = 0;
    double normalized = 0.0;

    Tick cycles = 0;
    MmuCounts mmu;
    double translationEnergyNj = 0.0;
    std::uint64_t dmaStallCycles = 0;
    /** Fig. 13 statistics (TPreg path cache only). */
    TpReg::MatchStats tpreg;
    /** Section IV-C statistics (Tpc/Uptc path caches only). */
    MmuCacheStats pathCache;
    double uptcEntryHitRate = 0.0;
};

/** The dense traffic source of one grid point. */
inline DenseDnnWorkloadConfig
denseWorkload(const GridPoint &gp)
{
    DenseDnnWorkloadConfig wl;
    wl.workload = gp.workload;
    wl.batch = gp.batch;
    return wl;
}

/**
 * Build the machine @p sys describes, run @p wl to completion on
 * NPU 0 through the Scheduler, and measure it.
 */
inline GridCell
runDense(const SystemConfig &sys, DenseDnnWorkloadConfig wl)
{
    System system(sys);
    Scheduler scheduler(system);
    scheduler.add(std::make_unique<DenseDnnWorkload>(std::move(wl)), 0);
    const SchedulerResult run = scheduler.run();
    NEUMMU_ASSERT(run.allDone, "dense workload never completed");

    GridCell cell;
    MmuEngine &mmu = system.mmu();
    cell.cycles = run.totalCycles;
    cell.mmu = mmu.counts();
    cell.translationEnergyNj = mmu.translationEnergyNj();
    cell.dmaStallCycles = system.dma(0).stallCycles();
    // Walker-core extras (TPreg, shared path cache, UPTC) only exist
    // on MmuCore; the zoo designs report their own stats groups.
    if (const MmuCore *core = mmu.asMmuCore()) {
        cell.tpreg = core->tpregStats();
        if (const MmuCacheStats *pcs = core->sharedCacheStats())
            cell.pathCache = *pcs;
        cell.uptcEntryHitRate = core->uptcEntryHitRate();
    }
    return cell;
}

/** All cells of one runGrid() call, in (point, design) run order. */
struct GridResults
{
    std::vector<GridCell> cells;

    /** Normalized performance of @p design across the grid. */
    std::vector<double>
    normalized(const std::string &design) const
    {
        std::vector<double> out;
        for (const GridCell &c : cells)
            if (c.design == design)
                out.push_back(c.normalized);
        return out;
    }

    double
    meanNormalized(const std::string &design) const
    {
        return mean(normalized(design));
    }

    /** Sum of translation energy for @p design across the grid. */
    double
    energyNj(const std::string &design) const
    {
        double e = 0.0;
        for (const GridCell &c : cells)
            if (c.design == design)
                e += c.translationEnergyNj;
        return e;
    }
};

/**
 * Common bench I/O: parses the shared command-line options and
 * records results in a StatsRegistry. Every recorded cell (and any
 * ad-hoc group()) flows through the registry's single JSON path when
 * the bench is invoked with --json=<path>; --stats dumps the registry
 * as text to stdout. The --json file is opened here, before the bench
 * runs anything, so an unwritable path exits 1 at once.
 */
class Reporter
{
  public:
    Reporter(std::string bench_name, int argc, char **argv)
        : _name(std::move(bench_name)), _args(argc, argv),
          _jsonPath(_args.get("json", ""))
    {
        if (_jsonPath.empty())
            return;
        _json.open(_jsonPath);
        if (!_json)
            NEUMMU_FATAL("cannot write --json file " + _jsonPath);
    }

    const ArgParser &args() const { return _args; }
    stats::StatsRegistry &registry() { return _registry; }

    /** Registry-owned group for ad-hoc (non-grid) results. */
    stats::Group &
    group(const std::string &group_name)
    {
        return _registry.group(group_name);
    }

    /** Record one grid cell as a "<design>.<point>" stats group. */
    void
    record(const GridCell &cell)
    {
        stats::Group &g =
            _registry.group(cell.design + "." + cell.point.key());
        g.scalar("normPerf").set(cell.normalized);
        g.scalar("cycles").set(double(cell.cycles));
        g.scalar("oracleCycles").set(double(cell.oracleCycles));
        g.scalar("walks").set(double(cell.mmu.walks));
        g.scalar("redundantWalks")
            .set(double(cell.mmu.redundantWalks));
        g.scalar("walkMemAccesses")
            .set(double(cell.mmu.walkMemAccesses));
        g.scalar("prmbMerges").set(double(cell.mmu.prmbMerges));
        g.scalar("tlbHits").set(double(cell.mmu.tlbHits));
        g.scalar("tlbMisses").set(double(cell.mmu.tlbMisses));
        g.scalar("blockedIssues")
            .set(double(cell.mmu.blockedIssues));
        g.scalar("dmaStallCycles")
            .set(double(cell.dmaStallCycles));
        g.scalar("energyNj").set(cell.translationEnergyNj);
    }

    /**
     * Handle --json/--stats; call once at the end of main() and
     * return its value from main(): 1 when a requested --json file
     * could not be written, else 0.
     */
    [[nodiscard]] int
    finish()
    {
        if (_args.getBool("stats", false))
            _registry.dumpText(std::cout);
        if (_jsonPath.empty())
            return 0;
        _registry.dumpJson(_json);
        _json.close();
        if (!_json) {
            warn("cannot write JSON output file " + _jsonPath);
            return 1;
        }
        std::printf("\n[%s] wrote JSON results to %s\n", _name.c_str(),
                    _jsonPath.c_str());
        return 0;
    }

  private:
    std::string _name;
    ArgParser _args;
    std::string _jsonPath;
    std::ofstream _json;
    stats::StatsRegistry _registry;
};

/** Called once per grid point with that point's row of cells. */
using RowObserver = std::function<void(
    const GridPoint &, const std::vector<GridCell> &)>;

/**
 * The bench entry point: run every design point of @p designs over
 * @p grid on the machine described by @p base (workload and MMU
 * design point applied per cell), normalizing each cell to an oracle
 * run of the same machine. Cells are recorded into @p reporter (when
 * given) and @p on_row fires after each completed grid point, in
 * grid order, for live table output.
 *
 * Execution is parallel via the SweepEngine: first the per-point
 * oracle references, then every (point, design) cell, each on its
 * own System. @p jobs = 0 takes --jobs=N from @p reporter's command
 * line, defaulting to hardware concurrency. Rows stream to @p on_row
 * (and to @p reporter, preserving registration order) as soon as
 * they and all preceding rows are complete, so output order is
 * byte-identical to the old serial loop.
 */
inline GridResults
runGrid(const SystemConfig &base,
        const std::vector<DesignPoint> &designs,
        const std::vector<GridPoint> &grid = denseGrid(),
        Reporter *reporter = nullptr, const RowObserver &on_row = {},
        unsigned jobs = 0)
{
    if (grid.empty() || designs.empty())
        return {};
    if (jobs == 0 && reporter)
        jobs = unsigned(reporter->args().getInt("jobs", 0));

    auto fatalOnFailure = [](const sweep::SweepResults &run) {
        for (const sweep::JobResult &job : run.jobs)
            if (!job.ok)
                NEUMMU_FATAL("grid cell '" + job.id +
                             "' failed: " + job.error);
    };

    // Phase 1: oracle reference cycles, one job per grid point.
    std::vector<sweep::JobSpec> oracle_jobs(grid.size());
    for (std::size_t i = 0; i < grid.size(); i++) {
        oracle_jobs[i].id = "oracle." + grid[i].key();
        oracle_jobs[i].runner = [&base, &grid, i]() {
            SystemConfig cfg = base;
            cfg.mmuDesign = "oracle";
            cfg.mmu.reset();
            sweep::JobOutcome out;
            out.totalCycles = runDense(cfg, denseWorkload(grid[i])).cycles;
            return out;
        };
    }
    sweep::SweepOptions opts;
    opts.threads = jobs;
    const sweep::SweepResults oracle_run =
        sweep::SweepEngine(opts).run(oracle_jobs);
    fatalOnFailure(oracle_run);

    // Phase 2: every (point, design) cell, streamed to the observer
    // in grid order as rows complete. Each runner binds its design's
    // overrides onto the base machine and writes its own pre-sized
    // slot; the progress hook runs under the engine lock.
    const std::size_t num_designs = designs.size();
    std::vector<GridCell> cells(grid.size() * num_designs);
    std::vector<sweep::JobSpec> cell_jobs(cells.size());
    for (std::size_t row = 0; row < grid.size(); row++) {
        for (std::size_t d = 0; d < num_designs; d++) {
            const std::size_t idx = row * num_designs + d;
            cell_jobs[idx].id =
                designs[d].name + "." + grid[row].key();
            cell_jobs[idx].runner = [&base, &grid, &designs, &cells,
                                     row, d, idx]() {
                SystemConfig cfg = base;
                sweep::applyOverrides(cfg, designs[d].set);
                cells[idx] = runDense(cfg, denseWorkload(grid[row]));
                sweep::JobOutcome out;
                out.totalCycles = cells[idx].cycles;
                return out;
            };
        }
    }

    GridResults results;
    results.cells.reserve(cell_jobs.size());
    std::vector<std::size_t> remaining(grid.size(), num_designs);
    std::size_t next_row = 0;
    auto emitReadyRows = [&]() {
        while (next_row < grid.size() && remaining[next_row] == 0) {
            std::vector<GridCell> row;
            row.reserve(num_designs);
            for (std::size_t d = 0; d < num_designs; d++) {
                GridCell cell =
                    std::move(cells[next_row * num_designs + d]);
                cell.point = grid[next_row];
                cell.design = designs[d].name;
                cell.oracleCycles = Tick(
                    oracle_run.jobs[next_row].outcome.totalCycles);
                cell.normalized =
                    double(cell.oracleCycles) / double(cell.cycles);
                if (reporter)
                    reporter->record(cell);
                row.push_back(std::move(cell));
            }
            if (on_row)
                on_row(grid[next_row], row);
            for (GridCell &cell : row)
                results.cells.push_back(std::move(cell));
            next_row++;
        }
    };
    opts.progress = [&](unsigned, unsigned,
                        const sweep::JobResult &job) {
        if (!job.ok)
            return; // reported after the run
        remaining[job.index / num_designs]--;
        emitReadyRows();
    };
    fatalOnFailure(sweep::SweepEngine(opts).run(cell_jobs));
    return results;
}

/**
 * Run the --workloads=<spec;spec;...> option (factory grammar, see
 * workloadFactoryHelp()) on the machine described by @p base, one
 * tenant per NPU slot in list order. The per-workload stats groups
 * land in @p reporter's registry (when given) alongside a
 * "<design>.tenants" summary group, so --json captures the whole
 * co-run. @p base.numNpus is raised to the tenant count if needed.
 */
inline SchedulerResult
runWorkloadList(SystemConfig base, const std::string &list,
                Reporter *reporter = nullptr,
                const std::string &design = "tenants")
{
    std::vector<std::unique_ptr<Workload>> workloads =
        makeWorkloadsFromList(list);
    base.numNpus =
        std::max<unsigned>(base.numNpus, unsigned(workloads.size()));

    System system(base);
    Scheduler scheduler(system);
    for (auto &wl : workloads)
        scheduler.add(std::move(wl));
    const SchedulerResult result = scheduler.run();

    if (reporter) {
        stats::Group &g = reporter->group(design);
        g.scalar("totalCycles").set(double(result.totalCycles));
        g.scalar("tenants").set(double(result.workloads.size()));
        g.scalar("allDone").set(result.allDone ? 1.0 : 0.0);
        for (const WorkloadRunStats &ws : result.workloads) {
            stats::Group &wg = reporter->group(
                design + ".npu" + std::to_string(ws.npu) + "." +
                ws.name);
            wg.scalar("finishTick").set(double(ws.finishTick));
            wg.scalar("translations").set(double(ws.translations));
            wg.scalar("bytesFetched").set(double(ws.bytesFetched));
            wg.scalar("dmaStallCycles")
                .set(double(ws.dmaStallCycles));
        }
    }
    return result;
}

/** Prints the standard figure header with a reproduction note. */
inline void
printHeader(const std::string &figure, const std::string &description)
{
    std::printf("================================================="
                "===========================\n");
    std::printf("%s -- %s\n", figure.c_str(), description.c_str());
    std::printf("NeuMMU reproduction (Hyun et al., ASPLOS 2020)\n");
    std::printf("================================================="
                "===========================\n\n");
}

} // namespace bench
} // namespace neummu

#endif // NEUMMU_BENCH_BENCH_UTIL_HH
