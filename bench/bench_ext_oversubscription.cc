/**
 * @file
 * Extension: memory oversubscription under the page lifecycle engine.
 *
 * The paper's motivating claim (Section I) is that physically
 * addressed NPUs crash the moment a working set outgrows HBM, while a
 * translated NPU can demand-page. This sweep quantifies what that
 * safety costs: the Fig. 16 embedding gather runs with the resident
 * cap set to a fraction of the pages the uncapped run touches, so the
 * steady state is evict + shootdown + refetch. Reported per design
 * point and residency ratio: slowdown vs. the uncapped run, faults,
 * evictions, shootdowns, and fault-stall cycles.
 *
 * Runs through the SweepEngine in two parallel phases (--jobs=N;
 * 0 = hardware concurrency): the uncapped references first (the
 * capped runs need their touched-page counts), then every capped
 * cell, each on its own System.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "workloads/embedding.hh"
#include "workloads/embedding_workload.hh"

using namespace neummu;

namespace {

struct CellResult
{
    Tick cycles = 0;
    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t residentPeak = 0;
};

CellResult
runCell(const std::string &design, unsigned batch, EvictionPolicy policy,
        std::uint64_t resident_limit_pages)
{
    SystemConfig cfg;
    sweep::applyOverrides(cfg, {{"name", "oversub"},
                                {"mmu.design", design},
                                {"preset", "dlrm_paging"}});
    cfg.paging.enabled = true;
    cfg.paging.policy = policy;
    cfg.paging.faultLatency = EmbeddingSystemConfig{}.faultHandlerLatency;
    cfg.paging.residentLimitBytes =
        resident_limit_pages * pageSize(cfg.pageShift);

    System system(cfg);
    Scheduler scheduler(system);
    scheduler.add(makeWorkloadFromSpecChecked(
                      "embedding:model=dlrm,mode=paging,batch=" +
                      std::to_string(batch)),
                  0);
    const SchedulerResult run = scheduler.run();
    NEUMMU_ASSERT(run.allDone, "oversubscribed gather never finished");

    PagingEngine &pe = system.pagingEngine();
    CellResult out;
    out.cycles = run.totalCycles;
    out.faults = pe.faults();
    out.evictions = pe.evictions();
    out.shootdowns = pe.shootdowns();
    out.stallCycles = pe.stallCycles();
    out.residentPeak = pe.residentPeakPages();
    return out;
}

} // namespace

int
main(int argc, char **argv)
try {
    bench::printHeader(
        "Extension: oversubscribed HBM",
        "Residency-ratio sweep of the demand-paged embedding gather "
        "(DLRM, device 0 shard)");
    bench::Reporter reporter("ext_oversubscription", argc, argv);

    const unsigned batch =
        unsigned(reporter.args().getInt("batch", 4));
    const EvictionPolicy policy = evictionPolicyFromName(
        reporter.args().get("policy", "clock"));
    const std::vector<double> ratios = {1.0, 0.75, 0.5, 0.25};
    const std::vector<std::string> designs = {"iommu", "neummu"};

    sweep::SweepOptions sweep_opts;
    sweep_opts.threads =
        unsigned(reporter.args().getInt("jobs", 0));

    // Phase 1 (parallel): uncapped references. They count the
    // touched pages and set the baseline cycle count the capped runs
    // are normalized to.
    std::vector<CellResult> refs(designs.size());
    {
        std::vector<sweep::JobSpec> jobs(designs.size());
        for (std::size_t k = 0; k < designs.size(); k++) {
            jobs[k].id =
                std::string("ref.") + translationDesign(designs[k]).title;
            jobs[k].runner = [&, k]() {
                refs[k] = runCell(designs[k], batch, policy, 0);
                sweep::JobOutcome out;
                out.totalCycles = refs[k].cycles;
                return out;
            };
        }
        for (const sweep::JobResult &job :
             sweep::SweepEngine(sweep_opts).run(jobs).jobs)
            if (!job.ok)
                NEUMMU_FATAL("reference run '" + job.id +
                             "' failed: " + job.error);
    }

    // Phase 2 (parallel): every capped (design, ratio < 1) cell. The
    // paging engine's cap is soft (it overshoots rather than
    // deadlock when every resident page has a walk in flight), so
    // the sweep can push residency well below the machine's
    // translation window.
    std::vector<CellResult> capped(designs.size() * ratios.size());
    {
        std::vector<sweep::JobSpec> jobs;
        for (std::size_t k = 0; k < designs.size(); k++) {
            for (std::size_t r = 0; r < ratios.size(); r++) {
                if (ratios[r] >= 1.0)
                    continue;
                const std::size_t idx = k * ratios.size() + r;
                const std::uint64_t pages = std::max<std::uint64_t>(
                    2, std::uint64_t(double(refs[k].residentPeak) *
                                     ratios[r]));
                sweep::JobSpec job;
                job.id = translationDesign(designs[k]).title +
                         std::string(".r") +
                         std::to_string(int(ratios[r] * 100));
                job.runner = [&, k, pages, idx]() {
                    capped[idx] =
                        runCell(designs[k], batch, policy, pages);
                    sweep::JobOutcome out;
                    out.totalCycles = capped[idx].cycles;
                    return out;
                };
                jobs.push_back(std::move(job));
            }
        }
        for (const sweep::JobResult &job :
             sweep::SweepEngine(sweep_opts).run(jobs).jobs)
            if (!job.ok)
                NEUMMU_FATAL("capped run '" + job.id +
                             "' failed: " + job.error);
    }

    std::printf("policy=%s batch=%u (ratio 1.0 = every touched page "
                "stays resident)\n\n",
                evictionPolicyName(policy).c_str(), batch);
    std::printf("%-10s %-7s %12s %10s %8s %10s %11s %12s\n", "design",
                "ratio", "cycles", "slowdown", "faults", "evictions",
                "shootdowns", "stallCycles");

    for (std::size_t k = 0; k < designs.size(); k++) {
        const char *title = translationDesign(designs[k]).title;
        const CellResult &ref = refs[k];
        for (std::size_t r = 0; r < ratios.size(); r++) {
            const double ratio = ratios[r];
            const CellResult &cell = ratio >= 1.0
                                         ? ref
                                         : capped[k * ratios.size() +
                                                  r];
            const double slowdown =
                double(cell.cycles) / double(ref.cycles);
            std::printf("%-10s %-7.2f %12llu %10.3f %8llu %10llu "
                        "%11llu %12llu\n",
                        title, ratio,
                        (unsigned long long)cell.cycles, slowdown,
                        (unsigned long long)cell.faults,
                        (unsigned long long)cell.evictions,
                        (unsigned long long)cell.shootdowns,
                        (unsigned long long)cell.stallCycles);
            std::fflush(stdout);

            char key[64];
            std::snprintf(key, sizeof(key), "%s.r%03d",
                          title,
                          int(ratio * 100.0 + 0.5));
            stats::Group &g = reporter.group(key);
            g.scalar("ratio").set(ratio);
            g.scalar("cycles").set(double(cell.cycles));
            g.scalar("slowdown").set(slowdown);
            g.scalar("faults").set(double(cell.faults));
            g.scalar("evictions").set(double(cell.evictions));
            g.scalar("shootdowns").set(double(cell.shootdowns));
            g.scalar("stallCycles").set(double(cell.stallCycles));
            g.scalar("residentPeakPages")
                .set(double(cell.residentPeak));
        }
        std::printf("\n");
    }

    std::printf("Takeaway: oversubscription turns the gather into a "
                "steady evict/shootdown/refetch\nloop; the cost is "
                "fault stalls plus migration bandwidth, not a crash "
                "-- and NeuMMU's\nwalker pool keeps the translation "
                "side of that loop off the critical path.\n");
    return reporter.finish();
} catch (const std::exception &e) {
    NEUMMU_FATAL(e.what());
}
