/**
 * @file
 * Shared helpers for the per-figure bench binaries: the standard
 * (workload x batch) grid of the paper's evaluation, the runGrid
 * sweep entry point over a SystemConfig machine description, oracle
 * caching, and the Reporter that records every grid cell in a
 * StatsRegistry and serves the common --json=<path> output mode.
 *
 * runGrid executes through the SweepEngine (src/sweep/), so every
 * grid bench is parallel by default: each cell builds its own System
 * on a worker thread and the per-System determinism certified by the
 * golden matrix makes the results identical to serial execution.
 * Every bench accepts --jobs=N (0 = hardware concurrency, the
 * default); rows still print live, in grid order.
 */

#ifndef NEUMMU_BENCH_BENCH_UTIL_HH
#define NEUMMU_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/arg_parser.hh"
#include "common/stats_registry.hh"
#include "driver/dense_experiment.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
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
 * Runs the dense grid once per MMU configuration, normalizing each
 * point to a cached oracle run. The mutator receives a base config
 * (workload/batch already set) and installs the design point.
 */
class DenseSweep
{
  public:
    using ConfigMutator = std::function<void(DenseExperimentConfig &)>;

    explicit DenseSweep(std::vector<GridPoint> grid = denseGrid())
        : _grid(std::move(grid))
    {
    }

    /** Base config shared by oracle and design points. */
    DenseExperimentConfig &baseConfig() { return _base; }

    /** Oracle cycle count for one grid point (cached). */
    Tick
    oracleCycles(const GridPoint &gp)
    {
        const auto key = std::make_pair(int(gp.workload), gp.batch);
        const auto it = _oracle.find(key);
        if (it != _oracle.end())
            return it->second;
        DenseExperimentConfig cfg = _base;
        cfg.workload = gp.workload;
        cfg.batch = gp.batch;
        cfg.system.mmuDesign = "oracle";
        cfg.system.mmu.reset();
        const Tick cycles = runDenseExperiment(cfg).totalCycles;
        _oracle.emplace(key, cycles);
        return cycles;
    }

    /** Run one grid point under @p mutate. */
    DenseExperimentResult
    run(const GridPoint &gp, const ConfigMutator &mutate)
    {
        DenseExperimentConfig cfg = _base;
        cfg.workload = gp.workload;
        cfg.batch = gp.batch;
        mutate(cfg);
        return runDenseExperiment(cfg);
    }

    /** Normalized performance of one grid point under @p mutate. */
    double
    normalized(const GridPoint &gp, const ConfigMutator &mutate)
    {
        const DenseExperimentResult r = run(gp, mutate);
        return double(oracleCycles(gp)) / double(r.totalCycles);
    }

    const std::vector<GridPoint> &grid() const { return _grid; }

  private:
    std::vector<GridPoint> _grid;
    DenseExperimentConfig _base;
    std::map<std::pair<int, unsigned>, Tick> _oracle;
};

/** One named MMU/machine design point of a sweep. */
struct DesignPoint
{
    std::string name;
    DenseSweep::ConfigMutator mutate;
};

/** Result of one (grid point, design point) cell. */
struct GridCell
{
    GridPoint point{};
    std::string design;
    Tick oracleCycles = 0;
    double normalized = 0.0;
    DenseExperimentResult result;
};

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
                e += c.result.translationEnergyNj;
        return e;
    }
};

/**
 * Common bench I/O: parses the shared command-line options and
 * records results in a StatsRegistry. Every recorded cell (and any
 * ad-hoc group()) flows through the registry's single JSON path when
 * the bench is invoked with --json=<path>; --stats dumps the registry
 * as text to stdout.
 */
class Reporter
{
  public:
    Reporter(std::string bench_name, int argc, char **argv)
        : _name(std::move(bench_name)), _args(argc, argv)
    {
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
        g.scalar("cycles").set(double(cell.result.totalCycles));
        g.scalar("oracleCycles").set(double(cell.oracleCycles));
        g.scalar("walks").set(double(cell.result.mmu.walks));
        g.scalar("redundantWalks")
            .set(double(cell.result.mmu.redundantWalks));
        g.scalar("walkMemAccesses")
            .set(double(cell.result.mmu.walkMemAccesses));
        g.scalar("prmbMerges").set(double(cell.result.mmu.prmbMerges));
        g.scalar("tlbHits").set(double(cell.result.mmu.tlbHits));
        g.scalar("tlbMisses").set(double(cell.result.mmu.tlbMisses));
        g.scalar("blockedIssues")
            .set(double(cell.result.mmu.blockedIssues));
        g.scalar("dmaStallCycles")
            .set(double(cell.result.dmaStallCycles));
        g.scalar("energyNj").set(cell.result.translationEnergyNj);
    }

    /** Handle --json/--stats; call once at the end of main(). */
    void
    finish()
    {
        if (_args.getBool("stats", false))
            _registry.dumpText(std::cout);
        const std::string path = _args.get("json", "");
        if (!path.empty() && _registry.writeJsonFile(path))
            std::printf("\n[%s] wrote JSON results to %s\n",
                        _name.c_str(), path.c_str());
    }

  private:
    std::string _name;
    ArgParser _args;
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
            DenseExperimentConfig cfg;
            cfg.workload = grid[i].workload;
            cfg.batch = grid[i].batch;
            cfg.system = base;
            cfg.system.mmuDesign = "oracle";
            cfg.system.mmu.reset();
            sweep::JobOutcome out;
            out.totalCycles = runDenseExperiment(cfg).totalCycles;
            return out;
        };
    }
    sweep::SweepOptions opts;
    opts.threads = jobs;
    const sweep::SweepResults oracle_run =
        sweep::SweepEngine(opts).run(oracle_jobs);
    fatalOnFailure(oracle_run);

    // Phase 2: every (point, design) cell, streamed to the observer
    // in grid order as rows complete. Each runner writes its own
    // pre-sized slot; the progress hook runs under the engine lock.
    const std::size_t num_designs = designs.size();
    std::vector<DenseExperimentResult> cell_results(grid.size() *
                                                    num_designs);
    std::vector<sweep::JobSpec> cell_jobs(cell_results.size());
    for (std::size_t row = 0; row < grid.size(); row++) {
        for (std::size_t d = 0; d < num_designs; d++) {
            const std::size_t idx = row * num_designs + d;
            cell_jobs[idx].id =
                designs[d].name + "." + grid[row].key();
            cell_jobs[idx].runner = [&base, &grid, &designs,
                                     &cell_results, row, d, idx]() {
                DenseExperimentConfig cfg;
                cfg.workload = grid[row].workload;
                cfg.batch = grid[row].batch;
                cfg.system = base;
                designs[d].mutate(cfg);
                cell_results[idx] = runDenseExperiment(cfg);
                sweep::JobOutcome out;
                out.totalCycles = cell_results[idx].totalCycles;
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
                GridCell cell;
                cell.point = grid[next_row];
                cell.design = designs[d].name;
                cell.result =
                    cell_results[next_row * num_designs + d];
                cell.oracleCycles = Tick(
                    oracle_run.jobs[next_row].outcome.totalCycles);
                cell.normalized = double(cell.oracleCycles) /
                                  double(cell.result.totalCycles);
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
