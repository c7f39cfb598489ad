/**
 * @file
 * MMU design zoo benchmark: every registered translation design
 * (oracle, baseline IOMMU, NeuMMU, RangeMMU, POM-TLB, NMT) measured
 * on the same four evaluation points -- a dense CNN layer stream, a
 * demand-paged DLRM embedding gather, a synthetic hot-set stream, and
 * an open-loop serving-churn scenario -- and rendered as one
 * comparison table. The points match scripts/design_zoo.jsonl, so the
 * table is the human-readable face of the CI sweep.
 *
 * Cells run in parallel through the SweepEngine (one System per
 * worker); each design's cycles are normalized to the oracle run of
 * the same point. The serving point reports tail latency and goodput
 * instead of a speedup, since the open-loop run never "finishes".
 *
 * Usage: bench_design_zoo [--jobs=N] [--cycles=N] [--json=FILE]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "mmu/translation_factory.hh"
#include "serving/serving_engine.hh"
#include "sweep/config_binder.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** One evaluation point: binder overrides + workload specs. */
struct Point
{
    std::string name;
    sweep::OverrideList overrides;
    std::vector<std::string> workloads;
    /** Tick cap (serving runs open-loop and needs one). */
    Tick limit = maxTick;
    bool serving = false;
};

/** One completed (design, point) cell. */
struct Cell
{
    bool ran = false;
    bool allDone = false;
    Tick cycles = 0;
    MmuCounts mmu;
    /** Design-reported translation energy (satellite of Fig. 12:
     *  the zoo designs charge their own structures, e.g. POM-TLB's
     *  in-DRAM set reads, on top of the walker-core model). */
    double energyNj = 0.0;
    serving::ServeReport serve;
};

std::vector<Point>
evaluationPoints(Tick serve_cycles)
{
    std::vector<Point> pts;
    pts.push_back({"dense",
                   {{"seed", "3"}},
                   {"dense:model=CNN1,batch=1,layers=2"}});
    pts.push_back({"embed",
                   {{"preset", "dlrm_paging"}, {"seed", "3"}},
                   {"embedding:model=dlrm,mode=paging,batch=1"}});
    pts.push_back({"hotset",
                   {{"seed", "3"}},
                   {"synthetic:pattern=hotset,footprint=4M,"
                    "accesses=1024"}});
    Point serve;
    serve.name = "serve";
    serve.overrides = {{"seed", "5"},
                       {"numNpus", "4"},
                       {"serve.enabled", "1"},
                       {"serve.tenants", "6"},
                       {"serve.lifetimeRequests", "8"},
                       {"serve.workload",
                        "embedding:footprint=128K,accesses=16"},
                       {"paging.enabled", "1"},
                       {"paging.residentLimitPages", "96"},
                       {"paging.faultLatency", "1000"},
                       {"serve.demandPaged", "1"}};
    serve.limit = serve_cycles;
    serve.serving = true;
    pts.push_back(serve);
    return pts;
}

Cell
runCell(const std::string &design, const Point &pt)
{
    SystemConfig cfg;
    cfg.name = "zoo";
    // mmu.design first: a design override after preset/knob edits is
    // exactly the ordering error the binder rejects.
    sweep::applyOverride(cfg, "mmu.design", design);
    for (const auto &kv : pt.overrides)
        sweep::applyOverride(cfg, kv.first, kv.second);

    System system(cfg);
    Scheduler scheduler(system);
    for (const std::string &spec : pt.workloads)
        scheduler.add(makeWorkloadFromSpec(spec));
    const SchedulerResult result = scheduler.run(pt.limit);

    Cell out;
    out.ran = true;
    out.allDone = pt.serving || result.allDone;
    out.cycles = result.totalCycles;
    out.mmu = system.mmu().counts();
    out.energyNj = system.mmu().translationEnergyNj();
    if (pt.serving)
        out.serve = system.servingEngine().report();
    return out;
}

void
recordCell(stats::Group &g, const Cell &cell, const Point &pt,
           double normalized)
{
    g.scalar("cycles").set(double(cell.cycles));
    g.scalar("normPerf").set(normalized);
    g.scalar("allDone").set(cell.allDone ? 1.0 : 0.0);
    g.scalar("walks").set(double(cell.mmu.walks));
    g.scalar("tlbHits").set(double(cell.mmu.tlbHits));
    g.scalar("tlbMisses").set(double(cell.mmu.tlbMisses));
    g.scalar("blockedIssues").set(double(cell.mmu.blockedIssues));
    g.scalar("faults").set(double(cell.mmu.faults));
    g.scalar("shootdowns").set(double(cell.mmu.shootdowns));
    g.scalar("translationEnergyNj").set(cell.energyNj);
    g.scalar("energyNjPerTransl")
        .set(cell.mmu.responses
                 ? cell.energyNj / double(cell.mmu.responses)
                 : 0.0);
    if (pt.serving) {
        g.scalar("completed").set(double(cell.serve.completed));
        g.scalar("p99").set(double(cell.serve.p99));
        g.scalar("goodput").set(cell.serve.goodput);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter reporter("bench_design_zoo", argc, argv);
    bench::printHeader("MMU design zoo",
                       "every registered translation design on the "
                       "dense / embedding / hot-set / serving points "
                       "of scripts/design_zoo.jsonl");

    const Tick serve_cycles =
        Tick(reporter.args().getInt("cycles", 1500000));
    const std::vector<Point> points = evaluationPoints(serve_cycles);

    std::vector<std::string> designs;
    for (const TranslationDesign &design : translationDesignTable())
        designs.push_back(design.key);

    // Every (design, point) cell on its own System, in parallel.
    // Each runner writes its pre-sized slot; the engine isolates
    // failures per cell.
    std::vector<Cell> cells(designs.size() * points.size());
    std::vector<sweep::JobSpec> jobs(cells.size());
    for (std::size_t d = 0; d < designs.size(); d++) {
        for (std::size_t p = 0; p < points.size(); p++) {
            const std::size_t idx = d * points.size() + p;
            jobs[idx].id = designs[d] + "." + points[p].name;
            jobs[idx].runner = [&designs, &points, &cells, d, p,
                                idx]() {
                cells[idx] = runCell(designs[d], points[p]);
                sweep::JobOutcome out;
                out.totalCycles = cells[idx].cycles;
                out.allDone = cells[idx].allDone;
                return out;
            };
        }
    }
    sweep::SweepOptions opts;
    opts.threads = unsigned(reporter.args().getInt("jobs", 0));
    const sweep::SweepResults run = sweep::SweepEngine(opts).run(jobs);

    bool ok = true;
    for (const sweep::JobResult &job : run.jobs) {
        if (!job.ok) {
            std::printf("FAILED %s: %s\n", job.id.c_str(),
                        job.error.c_str());
            ok = false;
        }
    }

    std::printf("%-8s %-7s %12s %8s %9s %9s %10s %8s %6s\n",
                "design", "point", "cycles", "norm", "walks",
                "tlbHits", "shootdowns", "nJ/tr", "extra");
    for (std::size_t d = 0; d < designs.size(); d++) {
        for (std::size_t p = 0; p < points.size(); p++) {
            const Cell &cell = cells[d * points.size() + p];
            if (!cell.ran) {
                ok = false;
                continue;
            }
            if (!cell.allDone) {
                std::printf("%-8s %-7s: DID NOT FINISH\n",
                            designs[d].c_str(),
                            points[p].name.c_str());
                ok = false;
                continue;
            }
            // Normalize to the oracle design's run of this point
            // (oracle is row 0 of the table by construction).
            const Cell &oracle = cells[p];
            const double norm =
                cell.cycles ? double(oracle.cycles) /
                                  double(cell.cycles)
                            : 0.0;
            char extra[48] = "";
            if (points[p].serving) {
                std::snprintf(extra, sizeof(extra),
                              "p99=%llu gp=%.2f",
                              (unsigned long long)cell.serve.p99,
                              cell.serve.goodput);
                if (cell.serve.completed == 0)
                    ok = false;
            }
            const double nj_per_transl =
                cell.mmu.responses
                    ? cell.energyNj / double(cell.mmu.responses)
                    : 0.0;
            std::printf("%-8s %-7s %12llu %8.3f %9llu %9llu %10llu"
                        " %8.3f %s\n",
                        designs[d].c_str(), points[p].name.c_str(),
                        (unsigned long long)cell.cycles, norm,
                        (unsigned long long)cell.mmu.walks,
                        (unsigned long long)cell.mmu.tlbHits,
                        (unsigned long long)cell.mmu.shootdowns,
                        nj_per_transl, extra);
            recordCell(reporter.group("zoo." + designs[d] + "." +
                                      points[p].name),
                       cell, points[p], norm);
        }
    }

    reporter.finish();
    if (!ok) {
        std::printf("\nbench_design_zoo: ACCEPTANCE CHECK FAILED\n");
        return 1;
    }
    std::printf("\nbench_design_zoo: %zu designs x %zu points, all "
                "cells completed\n",
                designs.size(), points.size());
    return 0;
}
