#include "sweep/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sweep/json_lite.hh"
#include "system/scheduler.hh"
#include "workloads/workload_factory.hh"

namespace neummu {
namespace sweep {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

/** Structural equality; numbers compare by their raw token text. */
bool
sameValue(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind || a.boolean != b.boolean || a.text != b.text ||
        a.items.size() != b.items.size() ||
        a.members.size() != b.members.size())
        return false;
    for (std::size_t i = 0; i < a.items.size(); i++)
        if (!sameValue(a.items[i], b.items[i]))
            return false;
    for (std::size_t i = 0; i < a.members.size(); i++)
        if (a.members[i].first != b.members[i].first ||
            !sameValue(a.members[i].second, b.members[i].second))
            return false;
    return true;
}

/** The dump's top-level groups minus the @p ignored suffixes. */
JsonValue
keptGroups(const std::string &dump,
           const std::vector<std::string> &ignored)
{
    JsonValue doc = parseJson(dump);
    auto &groups = doc.members;
    groups.erase(std::remove_if(groups.begin(), groups.end(),
                                [&](const auto &group) {
                                    for (const std::string &suffix :
                                         ignored)
                                        if (endsWith(group.first,
                                                     suffix))
                                            return true;
                                    return false;
                                }),
                 groups.end());
    return doc;
}

} // namespace

SweepEngine::SweepEngine(SweepOptions opts) : _opts(std::move(opts)) {}

unsigned
SweepEngine::effectiveThreads(unsigned requested, std::size_t num_jobs)
{
    unsigned threads = requested;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (num_jobs > 0 && threads > num_jobs)
        threads = unsigned(num_jobs);
    return threads > 0 ? threads : 1;
}

JobOutcome
SweepEngine::runDeclarative(const JobSpec &spec)
{
    SystemConfig cfg = spec.base;
    applyOverrides(cfg, spec.overrides);

    // A serving job generates its own traffic open-loop, so an empty
    // workload list is legal there -- but it must bound the run.
    if (spec.workloads.empty() && !cfg.serve.enabled)
        throw BindError("job '" + spec.id + "' has no workloads");
    if (cfg.serve.enabled && spec.limit == maxTick)
        throw BindError("job '" + spec.id + "' enables serving but "
                        "has no cycle limit (open-loop runs forever)");
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.reserve(spec.workloads.size());
    for (const std::string &wl_spec : spec.workloads)
        workloads.push_back(makeWorkloadFromSpecChecked(wl_spec));
    cfg.numNpus = std::max<unsigned>(cfg.numNpus,
                                     unsigned(workloads.size()));

    System system(cfg);
    Scheduler scheduler(system);
    for (auto &wl : workloads)
        scheduler.add(std::move(wl));
    const SchedulerResult run = scheduler.run(spec.limit);

    JobOutcome out;
    out.totalCycles = run.totalCycles;
    out.allDone = run.allDone;
    std::ostringstream os;
    system.dumpStatsJson(os); // also drains the trace engine
    out.statsJson = os.str();
    out.profile = system.mergedProfile();
    if (system.hasServingEngine())
        out.serve = system.servingEngine().report();
    if (system.hasTraceEngine()) {
        trace::TraceEngine &engine = system.traceEngine();
        if (!spec.tracePath.empty() &&
            !engine.writeChromeTraceFile(spec.tracePath))
            throw std::runtime_error("cannot write Chrome trace " +
                                     spec.tracePath);
        out.trace = engine.report();
    }
    return out;
}

JobResult
SweepEngine::runOne(const JobSpec &spec, unsigned index) const
{
    JobResult result;
    result.id = spec.id;
    result.index = index;
    const auto start = Clock::now();
    try {
        const unsigned reps = spec.reps > 0 ? spec.reps : 1;
        for (unsigned rep = 0; rep < reps; rep++) {
            JobOutcome outcome =
                spec.runner ? spec.runner() : runDeclarative(spec);
            if (rep == 0) {
                result.outcome = std::move(outcome);
            } else if (!sameStats(outcome.statsJson,
                                  result.outcome.statsJson) ||
                       outcome.totalCycles !=
                           result.outcome.totalCycles) {
                result.deterministic = false;
            }
        }
        result.reps = reps;
        result.ok = true;
    } catch (const std::exception &e) {
        result.ok = false;
        result.error = e.what();
    } catch (...) {
        result.ok = false;
        result.error = "unknown exception";
    }
    result.wallSeconds = secondsSince(start);
    return result;
}

SweepResults
SweepEngine::run(const std::vector<JobSpec> &jobs)
{
    SweepResults out;
    out.jobs.resize(jobs.size());
    const unsigned threads =
        effectiveThreads(_opts.threads, jobs.size());
    out.summary.jobs = unsigned(jobs.size());
    out.summary.threads = threads;

    const auto start = Clock::now();
    std::atomic<std::size_t> next{0};
    unsigned completed = 0;
    std::mutex mu;

    auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            JobResult result = runOne(jobs[i], unsigned(i));
            std::lock_guard<std::mutex> lock(mu);
            out.jobs[i] = std::move(result);
            completed++;
            if (_opts.progress)
                _opts.progress(completed, unsigned(jobs.size()),
                               out.jobs[i]);
        }
    };

    if (threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; t++)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    out.summary.wallSeconds = secondsSince(start);
    for (const JobResult &r : out.jobs)
        if (!r.ok)
            out.summary.failures++;
    return out;
}

bool
sameStats(const std::string &a, const std::string &b,
          const std::vector<std::string> &ignored)
{
    if (a == b)
        return true;
    if (a.empty() || b.empty())
        return false;
    return sameValue(keptGroups(a, ignored), keptGroups(b, ignored));
}

std::string
compareRuns(const SweepResults &a, const SweepResults &b)
{
    if (a.jobs.size() != b.jobs.size())
        return "job count differs: " + std::to_string(a.jobs.size()) +
               " vs " + std::to_string(b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); i++) {
        const JobResult &ja = a.jobs[i];
        const JobResult &jb = b.jobs[i];
        if (ja.id != jb.id)
            return "job " + std::to_string(i) + " id differs: '" +
                   ja.id + "' vs '" + jb.id + "'";
        if (ja.ok != jb.ok)
            return "job '" + ja.id + "' success differs";
        if (ja.outcome.totalCycles != jb.outcome.totalCycles)
            return "job '" + ja.id + "' totalCycles differs: " +
                   std::to_string(ja.outcome.totalCycles) + " vs " +
                   std::to_string(jb.outcome.totalCycles);
        if (!sameStats(ja.outcome.statsJson, jb.outcome.statsJson))
            return "job '" + ja.id + "' stats dump differs";
    }
    return "";
}

} // namespace sweep
} // namespace neummu
