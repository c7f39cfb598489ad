/**
 * @file
 * Measurement binary of the repository benchmark (see README.md in
 * this directory). It runs one benchmark workload through the
 * simulator's public API only -- ConfigBinder overrides,
 * makeWorkloadFromSpecChecked, System, Scheduler::add/run and the
 * public counter accessors -- timing each call from here, and writes
 * one JSON document of raw per-job samples to stdout. run.py builds
 * this program, derives the metrics and applies the correctness
 * gates.
 *
 *   perfbench --workload=dense_paper|paging_oversub|serve_churn64
 *             --seed=N --seconds=S --mode=e2e|layers
 *             [--size=full|tiny]
 *
 * A job is one pass over every cell (System) of the workload. Each
 * cell is set up setupRepeats times and its setup times are the
 * medians; the last System built is the one that runs. In e2e
 * mode the jobs run untraced and unprofiled, after one untimed
 * warm-up job, until S seconds have elapsed. In layers mode each
 * round runs an untraced reference job, a profiled job
 * (sim.profile=1) and a lifecycle-traced job (trace.enabled=1) --
 * separately, so neither inflates the other's host time -- plus, on
 * serve_churn64, the same job at sim.shards=1 and
 * sim.shards=min(4,nproc).
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats_registry.hh"
#include "mmu/mmu_core.hh"
#include "serving/serving_engine.hh"
#include "sim/profiler.hh"
#include "sweep/config_binder.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Setups per cell. Setup takes milliseconds, so one sample of it is
 * at the mercy of a single host hiccup; the median of several is not.
 */
constexpr unsigned setupRepeats = 5;

double
medianOf(std::vector<double> xs)
{
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    return xs[xs.size() / 2];
}

/** One simulated machine of a workload: overrides plus traffic. */
struct Cell
{
    std::string id;
    sweep::OverrideList set;
    std::vector<std::string> workloads;
    /** Scheduler::run limit; open-loop serving needs a finite one. */
    Tick limit = maxTick;
};

/** The dense models of the paper's Section IV-D grid. */
const char *const denseModels[] = {"CNN1", "CNN2", "CNN3",
                                   "RNN1", "RNN2", "RNN3"};

/**
 * dense_paper: batch 4 (the middle column of the paper's batch grid)
 * of every CNN and RNN model, each under the oracle, the baseline
 * IOMMU and NeuMMU; 4 KB pages, no paging, serial kernel.
 */
std::vector<Cell>
densePaperCells(const std::string &seed, bool tiny)
{
    std::vector<Cell> cells;
    for (const char *model : denseModels) {
        for (const char *design : {"oracle", "iommu", "neummu"}) {
            Cell c;
            c.id = std::string(model) + "_" + design;
            c.set = {{"seed", seed}, {"mmu.design", design}};
            c.workloads = {std::string("dense:model=") + model +
                           (tiny ? ",batch=1,layers=1" : ",batch=4")};
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/**
 * paging_oversub: the demand-paged DLRM gather with HBM oversubscribed
 * (CLOCK eviction under a 48-page residency cap), NeuMMU and IOMMU.
 */
std::vector<Cell>
pagingOversubCells(const std::string &seed, bool tiny)
{
    std::vector<Cell> cells;
    for (const char *design : {"neummu", "iommu"}) {
        Cell c;
        c.id = std::string("dlrm_") + design;
        c.set = {{"seed", seed},
                 {"mmu.design", design},
                 {"preset", "dlrm_paging"},
                 {"paging.enabled", "1"},
                 {"paging.policy", "clock"},
                 {"paging.residentLimitPages", "48"}};
        c.workloads = {std::string("embedding:model=dlrm,mode=paging,") +
                       (tiny ? "batch=16" : "batch=1024")};
        cells.push_back(std::move(c));
    }
    return cells;
}

/**
 * serve_churn64: 64 NPUs, bursty open-loop arrivals, 112 demand-paged
 * tenants admitted, drained, retired and torn down over a fixed
 * simulated-cycle budget (the serving bench's churn64 machine). The
 * bursty arrival count of one stream varies by about 16% from seed to
 * seed, so a job runs 16 independent streams derived from the seed.
 */
std::vector<Cell>
serveChurn64Cells(const std::string &seed, bool tiny)
{
    const unsigned streams = tiny ? 1 : 16;
    std::vector<Cell> cells;
    for (unsigned i = 0; i < streams; i++) {
        Cell c;
        c.id = "churn64_" + std::to_string(i);
        c.set = {{"seed", std::to_string(std::stoull(seed) * streams + i)},
                 {"numNpus", "64"},
                 {"paging.enabled", "1"},
                 {"paging.residentLimitPages", "512"},
                 {"paging.faultLatency", "2000"},
                 {"serve.enabled", "1"},
                 {"serve.process", "bursty"},
                 {"serve.ratePerMcycle", "800"},
                 {"serve.tenants", "112"},
                 {"serve.workload", "embedding:footprint=64K,accesses=16"},
                 {"serve.demandPaged", "1"},
                 {"serve.lifetimeRequests", "25"},
                 {"serve.sloLatency", "200000"}};
        c.limit = tiny ? 2000000 : 10000000;
        cells.push_back(std::move(c));
    }
    return cells;
}

/** Raw samples of one job (one pass over every cell). */
struct JobSample
{
    std::string pass;
    /** The untimed first job of an e2e run. */
    bool warmup = false;
    bool ok = true;
    std::string error;
    double bindS = 0, systemS = 0, placeS = 0, runS = 0;
    std::uint64_t digest = 1469598103934665603ull;
    /** Simulated cycles per cell, in cell order. */
    std::vector<Tick> cycles;
    /** Named raw counters, summed over cells (peaks: max). */
    std::map<std::string, double> counters;
    /** Host-time attribution, merged over cells (sim.profile=1). */
    SimProfiler prof;
    bool profiled = false;

    void add(const std::string &name, double v) { counters[name] += v; }

    void
    max(const std::string &name, double v)
    {
        double &x = counters[name];
        x = std::max(x, v);
    }
};

void
fnv(std::uint64_t &h, const char *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; i++) {
        h ^= std::uint8_t(p[i]);
        h *= 1099511628211ull;
    }
}

/**
 * Fold @p sys's JSON stats dump into @p h, skipping the groups only
 * the observational switches register (`<sys>.prof`,
 * `<sys>.fastpath`, `<sys>.trace`), so untraced, profiled and traced
 * runs of one machine must hash identically.
 */
void
digestDump(System &sys, std::uint64_t &h)
{
    std::ostringstream os;
    sys.dumpStatsJson(os);
    // Drop the closing brace so the last group hashes alike whether
    // or not a skipped group follows it.
    std::string dump = os.str();
    dump.resize(dump.rfind("\n}"));
    const std::string &sys_name = sys.config().name;
    const std::string head = "\n  \"";
    std::size_t pos = dump.find(head);
    while (pos < dump.size()) {
        std::size_t next = dump.find(head, pos + 1);
        if (next == std::string::npos)
            next = dump.size();
        const std::string chunk = dump.substr(pos, next - pos);
        const std::string group = chunk.substr(
            head.size(), chunk.find('"', head.size()) - head.size());
        if (group != sys_name + ".prof" &&
            group != sys_name + ".fastpath" &&
            group != sys_name + ".trace") {
            std::size_t n = chunk.size();
            if (n > 0 && chunk[n - 1] == ',')
                n--;
            fnv(h, chunk.data(), n);
        }
        pos = next;
    }
}

/** Read the counters a System exposes after its run into @p job. */
void
collect(System &sys, JobSample &job)
{
    job.add("events", double(sys.eventsExecuted()));
    job.max("peak_queue_depth", double(sys.peakQueueDepth()));
    job.add("train_sub_inlined", double(sys.trainSubEventsInlined()));
    job.add("same_tick_shortcuts", double(sys.sameTickShortcuts()));
    job.add("walk_cache_hits", double(sys.pageTable().walkCacheHits()));

    const MmuCounts mc = sys.mmu().counts();
    job.add("mmu_requests", double(mc.requests));
    job.add("tlb_hits", double(mc.tlbHits));
    job.add("tlb_misses", double(mc.tlbMisses));
    job.add("walks", double(mc.walks));
    job.add("walk_mem_accesses", double(mc.walkMemAccesses));
    job.add("prmb_merges", double(mc.prmbMerges));
    job.add("shootdowns", double(mc.shootdowns));
    job.add("squashed_walks", double(mc.squashedWalks));
    if (MmuCore *core = sys.mmu().asMmuCore())
        job.add("register_hits", double(core->xlateRegisterHits()));

    std::uint64_t stall = 0;
    for (unsigned i = 0; i < sys.numNpus(); i++)
        stall += sys.dma(i).stallCycles();
    job.add("dma_stall_cycles", double(stall));

    if (sys.hasPagingEngine()) {
        const PagingEngine &pe = sys.pagingEngine();
        job.add("paging_cells", 1);
        job.add("paging_faults", double(pe.faults()));
        job.add("paging_evictions", double(pe.evictions()));
        job.add("paging_stall_cycles", double(pe.stallCycles()));
    }
    if (sys.hasServingEngine()) {
        const serving::ServeReport rep = sys.servingEngine().report();
        job.add("serving_cells", 1);
        job.add("serving_arrivals", double(rep.arrivals));
        job.add("serving_completed", double(rep.completed));
        job.add("serving_retired", double(rep.retired));
        job.max("serving_p99_cycles", double(rep.p99));
    }
    if (sys.sharded()) {
        job.add("domain_windows",
                double(sys.domains().windowsExecuted()));
        job.add("domain_messages",
                double(sys.domains().messagesPosted()));
    }
    if (sys.hasTraceEngine()) {
        trace::TraceEngine &te = sys.traceEngine();
        te.drain();
        const trace::TraceEngine::Report &r = te.report();
        job.add("trace_spans", double(r.spansRecorded));
        job.add("trace_dropped", double(r.dropped));
        job.add("traced_translations", double(r.tracedTranslations));
        auto ticks = [&](trace::Stage st) {
            return double(r.stages[unsigned(st)].totalTicks);
        };
        job.add("stage_walk_ticks", ticks(trace::Stage::Walk));
        job.add("stage_prmb_merge_ticks", ticks(trace::Stage::PrmbMerge));
        job.add("stage_queue_delay_ticks",
                ticks(trace::Stage::QueueDelay));
        job.add("stage_fault_ticks", ticks(trace::Stage::Fault));
    }
    if (sys.config().sim.profile) {
        job.profiled = true;
        job.prof.merge(sys.mergedProfile());
    }
}

/**
 * Run every cell once with @p extra overrides appended. A cell that
 * throws, leaves a workload unfinished, or (serving) completes no
 * request fails the job; the job then stops at that cell.
 */
JobSample
runJob(const std::vector<Cell> &cells, const std::string &pass,
       const sweep::OverrideList &extra)
{
    JobSample job;
    job.pass = pass;
    for (const Cell &cell : cells) {
        try {
            using D = std::chrono::duration<double>;
            std::vector<double> bind, system, place;
            std::unique_ptr<System> sys;
            std::unique_ptr<Scheduler> scheduler;
            for (unsigned r = 0; r < setupRepeats; r++) {
                scheduler.reset();
                sys.reset();
                const auto t0 = Clock::now();
                SystemConfig cfg;
                sweep::OverrideList set = cell.set;
                set.insert(set.end(), extra.begin(), extra.end());
                sweep::applyOverrides(cfg, set);
                const auto t1 = Clock::now();
                sys = std::make_unique<System>(std::move(cfg));
                const auto t2 = Clock::now();
                scheduler = std::make_unique<Scheduler>(*sys);
                for (const std::string &spec : cell.workloads)
                    scheduler->add(makeWorkloadFromSpecChecked(spec));
                const auto t3 = Clock::now();
                bind.push_back(D(t1 - t0).count());
                system.push_back(D(t2 - t1).count());
                place.push_back(D(t3 - t2).count());
            }
            const auto runStart = Clock::now();
            const SchedulerResult res = scheduler->run(cell.limit);
            const auto runEnd = Clock::now();

            job.bindS += medianOf(bind);
            job.systemS += medianOf(system);
            job.placeS += medianOf(place);
            job.runS += D(runEnd - runStart).count();
            job.cycles.push_back(res.totalCycles);
            collect(*sys, job);
            digestDump(*sys, job.digest);

            if (!res.allDone)
                throw std::runtime_error("a workload did not finish");
            if (sys->hasServingEngine() &&
                (sys->servingEngine().completed() == 0 ||
                 sys->servingEngine().retired() == 0))
                throw std::runtime_error(
                    "serving completed or retired nothing");
        } catch (const std::exception &e) {
            job.ok = false;
            job.error = cell.id + ": " + e.what();
            break;
        }
    }
    return job;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + stats::jsonEscape(s) + "\"";
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printJob(const JobSample &job, bool last)
{
    char digest[20];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  (unsigned long long)job.digest);
    std::printf("    {\"pass\": %s, \"warmup\": %s, \"ok\": %s, "
                "\"error\": %s, \"digest\": \"%s\",\n",
                jsonString(job.pass).c_str(), job.warmup ? "true" : "false",
                job.ok ? "true" : "false",
                jsonString(job.error).c_str(), digest);
    std::printf("     \"bind_s\": %s, \"system_s\": %s, \"place_s\": %s, "
                "\"run_s\": %s,\n",
                num(job.bindS).c_str(), num(job.systemS).c_str(),
                num(job.placeS).c_str(), num(job.runS).c_str());
    std::printf("     \"cycles\": [");
    for (std::size_t i = 0; i < job.cycles.size(); i++)
        std::printf("%s%llu", i ? ", " : "",
                    (unsigned long long)job.cycles[i]);
    std::printf("],\n     \"counters\": {");
    const char *sep = "";
    for (const auto &[name, value] : job.counters) {
        std::printf("%s%s: %s", sep, jsonString(name).c_str(),
                    num(value).c_str());
        sep = ", ";
    }
    std::printf("},\n     \"prof\": {");
    if (job.profiled) {
        for (unsigned p = 0; p < SimProfiler::numSlots; p++) {
            const SimProfiler::Slot &s = job.prof.slot(ProfSubsystem(p));
            std::printf("%s\"%s\": [%llu, %llu]", p ? ", " : "",
                        profSubsystemName(ProfSubsystem(p)),
                        (unsigned long long)s.count,
                        (unsigned long long)s.nanos);
        }
    }
    std::printf("}}%s\n", last ? "" : ",");
}

void
printCells(const char *key, const std::vector<Cell> &cells)
{
    std::printf("  \"%s\": [\n", key);
    for (std::size_t i = 0; i < cells.size(); i++) {
        const Cell &c = cells[i];
        std::printf("    {\"id\": %s, \"set\": [", jsonString(c.id).c_str());
        for (std::size_t k = 0; k < c.set.size(); k++)
            std::printf("%s[%s, %s]", k ? ", " : "",
                        jsonString(c.set[k].first).c_str(),
                        jsonString(c.set[k].second).c_str());
        std::printf("], \"workloads\": [");
        for (std::size_t k = 0; k < c.workloads.size(); k++)
            std::printf("%s%s", k ? ", " : "",
                        jsonString(c.workloads[k]).c_str());
        std::printf("], \"limit\": %s}%s\n",
                    c.limit == maxTick ? "null"
                                       : num(double(c.limit)).c_str(),
                    i + 1 < cells.size() ? "," : "");
    }
    std::printf("  ],\n");
}

/** Value of "--key=value" in @p argv, or @p def. */
std::string
arg(int argc, char **argv, const std::string &key, const std::string &def)
{
    const std::string prefix = "--" + key + "=";
    for (int i = 1; i < argc; i++)
        if (std::string(argv[i]).rfind(prefix, 0) == 0)
            return std::string(argv[i]).substr(prefix.size());
    return def;
}

/**
 * The sharded kernel is on its way to a keep-or-delete decision; once
 * sim.shards is no longer a binder key the domain pass is skipped and
 * its metrics read absent.
 */
bool
shardedKernelExists()
{
    SystemConfig cfg;
    try {
        sweep::applyOverride(cfg, "sim.shards", "1");
    } catch (const sweep::BindError &) {
        return false;
    }
    return true;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string workload = arg(argc, argv, "workload", "");
    const std::string seed = arg(argc, argv, "seed", "1");
    const double seconds = std::atof(arg(argc, argv, "seconds", "10").c_str());
    const std::string mode = arg(argc, argv, "mode", "e2e");
    const bool tiny = arg(argc, argv, "size", "full") == "tiny";

    std::vector<Cell> cells;
    if (workload == "dense_paper")
        cells = densePaperCells(seed, tiny);
    else if (workload == "paging_oversub")
        cells = pagingOversubCells(seed, tiny);
    else if (workload == "serve_churn64")
        cells = serveChurn64Cells(seed, tiny);
    if (cells.empty() || (mode != "e2e" && mode != "layers")) {
        std::fprintf(stderr,
                     "usage: perfbench --workload=dense_paper|"
                     "paging_oversub|serve_churn64 --seed=N "
                     "--seconds=S --mode=e2e|layers [--size=tiny]\n");
        return 2;
    }

    // Passes of one layers-mode round: the untraced reference, then
    // the profiler and the lifecycle tracer separately, then (serving
    // only) the sharded kernel at one and at N shards.
    const unsigned shardsN =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    std::vector<std::pair<std::string, sweep::OverrideList>> passes = {
        {"plain", {}}};
    if (mode == "layers") {
        passes.push_back({"profiled", {{"sim.profile", "1"}}});
        passes.push_back(
            {"traced", {{"trace.enabled", "1"}, {"trace.ring", "2097152"}}});
        if (workload == "serve_churn64" && shardedKernelExists()) {
            passes.push_back({"shards1", {{"sim.shards", "1"}}});
            passes.push_back(
                {"shardsN", {{"sim.shards", std::to_string(shardsN)}}});
        }
    }

    std::vector<JobSample> jobs;
    if (mode == "e2e") {
        jobs.push_back(runJob(cells, "plain", {}));
        jobs.back().warmup = true;
    }
    const auto t0 = Clock::now();
    do {
        for (const auto &[name, extra] : passes)
            jobs.push_back(runJob(cells, name, extra));
    } while (secondsSince(t0) < seconds);
    const double rss = peakRssMb();

    // The paper-fidelity cells are part of every e2e result; on the
    // other workloads they run once, untimed, after RSS is sampled.
    std::vector<Cell> fidelity;
    JobSample fidelityJob;
    if (mode == "e2e" && workload != "dense_paper") {
        fidelity = densePaperCells(seed, tiny);
        fidelityJob = runJob(fidelity, "fidelity", {});
    }

    std::printf("{\n  \"workload\": %s,\n", jsonString(workload).c_str());
    std::printf("  \"build\": {\"compiler\": %s, \"flags\": %s, "
                "\"build_type\": %s},\n",
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(PERFBENCH_FLAGS).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str());
    std::printf("  \"hardware_concurrency\": %u, \"shards_n\": %u, "
                "\"peak_rss_mb\": %s,\n",
                std::thread::hardware_concurrency(), shardsN,
                num(rss).c_str());
    std::printf("  \"passes\": {");
    for (std::size_t i = 0; i < passes.size(); i++) {
        std::printf("%s%s: [", i ? ", " : "",
                    jsonString(passes[i].first).c_str());
        const auto &extra = passes[i].second;
        for (std::size_t k = 0; k < extra.size(); k++)
            std::printf("%s[%s, %s]", k ? ", " : "",
                        jsonString(extra[k].first).c_str(),
                        jsonString(extra[k].second).c_str());
        std::printf("]");
    }
    std::printf("},\n");
    printCells("cells", cells);
    printCells("fidelity_cells", fidelity);
    std::printf("  \"fidelity_job\": [\n");
    if (!fidelity.empty())
        printJob(fidelityJob, true);
    std::printf("  ],\n  \"jobs\": [\n");
    for (std::size_t i = 0; i < jobs.size(); i++)
        printJob(jobs[i], i + 1 == jobs.size());
    std::printf("  ]\n}\n");
    return 0;
}
