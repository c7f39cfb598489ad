/**
 * @file
 * Serving-mode benchmark: the steady-state multi-tenant NPU pool the
 * paper motivates (Section I), measured open-loop. Two scenarios:
 *
 *  - "steady": a modest Poisson stream over a fixed tenant population
 *    on backed memory -- the latency floor of the translation path.
 *  - "churn64": the acceptance scenario. 64 NPUs, >100 concurrent
 *    demand-paged tenants retiring and being replaced continuously,
 *    run for >=10M cycles under a residency cap so the PagingEngine
 *    evicts and shoots down translations throughout. The bench
 *    re-runs the scenario at half the cycle budget to show the
 *    eviction/shootdown counters advance in BOTH halves, and re-runs
 *    it with the same seed to certify the dump is byte-identical.
 *
 * Usage: bench_serving [--cycles=N] [--json=FILE] [--stats]
 */

#include <cstdio>
#include <sstream>
#include <string>

#include "bench_util.hh"
#include "serving/serving_engine.hh"
#include "system/paging_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"

using namespace neummu;

namespace {

struct ServeRun
{
    serving::ServeReport report;
    std::uint64_t evictions = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t releasedPages = 0;
    std::uint64_t faults = 0;
    std::string dump;
};

ServeRun
runServe(const SystemConfig &cfg, Tick cycles)
{
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(cycles);

    ServeRun out;
    out.report = system.servingEngine().report();
    if (system.hasPagingEngine()) {
        const PagingEngine &paging = system.pagingEngine();
        out.evictions = paging.evictions();
        out.shootdowns = paging.shootdowns();
        out.releasedPages = paging.releasedPages();
        out.faults = paging.faults();
    }
    std::ostringstream os;
    system.dumpStatsJson(os);
    out.dump = os.str();
    return out;
}

void
recordReport(stats::Group &g, const serving::ServeReport &rep)
{
    g.scalar("arrivals").set(double(rep.arrivals));
    g.scalar("completed").set(double(rep.completed));
    g.scalar("dropped").set(double(rep.dropped));
    g.scalar("unrouted").set(double(rep.unrouted));
    g.scalar("sloViolations").set(double(rep.sloViolations));
    g.scalar("admitted").set(double(rep.admitted));
    g.scalar("retired").set(double(rep.retired));
    g.scalar("liveTenants").set(double(rep.liveTenants));
    g.scalar("meanLatency").set(rep.meanLatency);
    g.scalar("p50").set(double(rep.p50));
    g.scalar("p90").set(double(rep.p90));
    g.scalar("p99").set(double(rep.p99));
    g.scalar("p999").set(double(rep.p999));
    g.scalar("goodput").set(rep.goodput);
}

SystemConfig
steadyConfig()
{
    SystemConfig cfg;
    cfg.name = "steady";
    cfg.seed = 11;
    cfg.numNpus = 8;
    cfg.serve.enabled = true;
    cfg.serve.arrival.kind = serving::ArrivalKind::Poisson;
    cfg.serve.arrival.ratePerMcycle = 400.0;
    cfg.serve.tenants = 8;
    cfg.serve.workload = "embedding:footprint=1M,accesses=32";
    return cfg;
}

SystemConfig
churn64Config()
{
    SystemConfig cfg;
    cfg.name = "churn64";
    cfg.seed = 23;
    cfg.numNpus = 64;
    cfg.paging.enabled = true;
    // The pool's aggregate footprint (112 tenants x 16 pages) is ~3.5x
    // this cap, so steady state is continuous evict/fetch churn.
    cfg.paging.residentLimitBytes = 512 * pageSize(cfg.pageShift);
    cfg.paging.faultLatency = 2000;
    cfg.serve.enabled = true;
    cfg.serve.arrival.kind = serving::ArrivalKind::Bursty;
    cfg.serve.arrival.ratePerMcycle = 800.0;
    cfg.serve.tenants = 112;
    cfg.serve.workload = "embedding:footprint=64K,accesses=16";
    cfg.serve.demandPaged = true;
    cfg.serve.tenantLifetimeRequests = 25;
    cfg.serve.sloLatencyCycles = 200000;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Reporter reporter("bench_serving", argc, argv);
    bench::printHeader("Serving benchmark",
                       "open-loop multi-tenant serving with churn "
                       "(steady + churn64 scenarios)");

    const Tick cycles =
        Tick(reporter.args().getInt("cycles", 10000000));

    // --- steady: latency floor, no churn --------------------------
    {
        const ServeRun run = runServe(steadyConfig(), cycles / 2);
        recordReport(reporter.group("serving.steady"), run.report);
        std::printf("steady : %llu arrivals, p50=%llu p99=%llu "
                    "p999=%llu cycles, goodput %.4f\n",
                    (unsigned long long)run.report.arrivals,
                    (unsigned long long)run.report.p50,
                    (unsigned long long)run.report.p99,
                    (unsigned long long)run.report.p999,
                    run.report.goodput);
    }

    // --- churn64: the acceptance scenario -------------------------
    const SystemConfig churn = churn64Config();
    const ServeRun half = runServe(churn, cycles / 2);
    const ServeRun full = runServe(churn, cycles);

    stats::Group &g = reporter.group("serving.churn64");
    recordReport(g, full.report);
    g.scalar("simCycles").set(double(cycles));
    g.scalar("evictions").set(double(full.evictions));
    g.scalar("shootdowns").set(double(full.shootdowns));
    g.scalar("releasedPages").set(double(full.releasedPages));
    g.scalar("faults").set(double(full.faults));
    // Churn is continuous when the counters advance in both halves
    // of the run, not just during warm-up.
    const bool advancing = half.evictions > 0 &&
                           full.evictions > half.evictions &&
                           half.shootdowns > 0 &&
                           full.shootdowns > half.shootdowns;
    g.scalar("churnBothHalves").set(advancing ? 1.0 : 0.0);

    // Determinism: same seed -> byte-identical dump.
    const ServeRun again = runServe(churn, cycles);
    const bool same_seed = full.dump == again.dump;
    g.scalar("identicalSameSeed").set(same_seed ? 1.0 : 0.0);

    std::printf("churn64: %llu arrivals, %llu completed, "
                "admitted=%llu retired=%llu\n",
                (unsigned long long)full.report.arrivals,
                (unsigned long long)full.report.completed,
                (unsigned long long)full.report.admitted,
                (unsigned long long)full.report.retired);
    std::printf("churn64: p50=%llu p99=%llu p999=%llu cycles, "
                "goodput %.4f\n",
                (unsigned long long)full.report.p50,
                (unsigned long long)full.report.p99,
                (unsigned long long)full.report.p999,
                full.report.goodput);
    std::printf("churn64: evictions %llu->%llu, shootdowns "
                "%llu->%llu, released %llu (%s)\n",
                (unsigned long long)half.evictions,
                (unsigned long long)full.evictions,
                (unsigned long long)half.shootdowns,
                (unsigned long long)full.shootdowns,
                (unsigned long long)full.releasedPages,
                advancing ? "advancing in both halves"
                          : "NOT ADVANCING");
    std::printf("churn64: same-seed dump %s\n",
                same_seed ? "byte-identical" : "DIVERGED");

    reporter.finish();
    const bool ok = advancing && same_seed &&
                    full.report.retired > 0 &&
                    full.report.completed > 0;
    if (!ok) {
        std::printf("\nbench_serving: ACCEPTANCE CHECK FAILED\n");
        return 1;
    }
    std::printf("\nbench_serving: acceptance checks passed\n");
    return 0;
}
