/**
 * @file
 * Parallel deterministic simulation service. A SweepEngine executes a
 * manifest of jobs -- each a SystemConfig (plus ConfigBinder
 * overrides), a workload list, and a rep count -- across a
 * worker-thread pool. Every worker constructs its own System /
 * EventQueue / StatsRegistry, so jobs share no mutable state and a
 * J-job sweep is embarrassingly parallel; per-System byte-exact
 * determinism (certified by the golden-stats matrix) guarantees the
 * merged results are byte-identical to serial execution.
 *
 * Guarantees:
 * - Failure isolation: a job that throws (BindError, WorkloadError,
 *   anything std::exception) is captured into its JobResult; the
 *   sweep continues.
 * - Deterministic ordering: results land at their job's manifest
 *   index no matter which worker finished first.
 * - Reps: a job run more than once must dump identical stats every
 *   time (host nanoseconds in `<sys>.prof` aside); divergence is
 *   flagged (deterministic=false), which is how hidden global state
 *   would surface.
 *
 * The ResultSink (result_sink.hh) merges a SweepResults into one
 * schema-versioned JSON document plus a flat CSV for plotting.
 */

#ifndef NEUMMU_SWEEP_SWEEP_ENGINE_HH
#define NEUMMU_SWEEP_SWEEP_ENGINE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "serving/serving_engine.hh"
#include "sim/profiler.hh"
#include "sweep/config_binder.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"

namespace neummu {
namespace sweep {

/** What one (successful) job execution produced. */
struct JobOutcome
{
    /** Full StatsRegistry JSON dump of the job's System ("" if the
     *  runner produced none). */
    std::string statsJson;
    Tick totalCycles = 0;
    bool allDone = true;
    /** Host-time attribution merged over the job's System; empty
     *  unless it ran with sim.profile=1. */
    SimProfiler profile;
    /** SLO summary; present when the job ran with serve.enabled=1. */
    std::optional<serving::ServeReport> serve;
    /** Drained trace report (span counts, latency decompositions);
     *  present when the job ran with trace.enabled=1. */
    std::optional<trace::TraceEngine::Report> trace;
};

/**
 * One sweep job. Either declarative -- base config + binder
 * overrides + factory workload specs, runnable from a manifest line
 * -- or programmatic via @p runner (how the bench grid schedules
 * arbitrary experiment code through the engine).
 */
struct JobSpec
{
    /** Stable identifier; keys the merged output. */
    std::string id;
    /** Starting machine description (before overrides). */
    SystemConfig base{};
    /** ConfigBinder key=value overrides, applied in order. */
    OverrideList overrides;
    /** Workload factory specs, one tenant per NPU slot in order. */
    std::vector<std::string> workloads;
    /** Times to execute the job (>1 cross-checks determinism). */
    unsigned reps = 1;
    /** Event-queue run limit (inclusive; maxTick = drain). */
    Tick limit = maxTick;
    /** Where a traced job (trace.enabled=1) writes its Chrome
     *  trace-event JSON; "" writes none. An unwritable path fails the
     *  job. Every rep rewrites the file. */
    std::string tracePath;
    /**
     * Programmatic job body; when set, the declarative fields above
     * (base/overrides/workloads/limit/tracePath) are ignored. Must be safe to
     * call from a worker thread and must not touch state shared with
     * other jobs (distinct result slots are fine).
     */
    std::function<JobOutcome()> runner;
};

/** Execution record of one job, at the job's manifest index. */
struct JobResult
{
    std::string id;
    unsigned index = 0;
    /** False when the job threw; @p error carries the message. */
    bool ok = false;
    std::string error;
    unsigned reps = 0;
    /** False when a rep dumped different stats than rep 0. */
    bool deterministic = true;
    /** Rep 0's outcome. */
    JobOutcome outcome;
    /** Wall-clock spent on this job (all reps). */
    double wallSeconds = 0.0;
};

/** Aggregate record of one SweepEngine::run(). */
struct SweepSummary
{
    unsigned jobs = 0;
    unsigned failures = 0;
    unsigned threads = 0;
    double wallSeconds = 0.0;
    /**
     * Serial-baseline measurement (tool --serial-baseline): the same
     * manifest's single-threaded wall clock and the resulting
     * speedup, recorded so the perf-trajectory artifacts capture
     * scaling, not just events/sec. Absent (haveSerialBaseline =
     * false) unless the caller measured it.
     */
    bool haveSerialBaseline = false;
    double serialWallSeconds = 0.0;
    double speedup = 0.0;
    /** Serial and parallel per-job stats compared byte-identical. */
    bool serialMatchesParallel = false;
};

struct SweepResults
{
    /** Per-job results, in manifest order. */
    std::vector<JobResult> jobs;
    SweepSummary summary;
};

/** Progress hook: (completed, total, just-finished result). Called
 *  under the engine's lock -- keep it short; safe to print from. */
using ProgressFn =
    std::function<void(unsigned, unsigned, const JobResult &)>;

struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    unsigned threads = 1;
    ProgressFn progress;
};

/**
 * The execution service. run() owns a transient worker pool per
 * call; the engine itself holds no job state between runs.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions opts = {});

    /** Execute @p jobs; returns per-job results in manifest order. */
    SweepResults run(const std::vector<JobSpec> &jobs);

    /**
     * Execute one declarative job body: bind overrides onto the base
     * config, instantiate the workload list (one tenant per slot,
     * numNpus raised to the tenant count), run the Scheduler to
     * @p spec.limit, dump the System's StatsRegistry, keep its
     * serving and trace reports, and write @p spec.tracePath. Throws
     * BindError / WorkloadError / std::runtime_error on user error --
     * run() captures these per job.
     */
    static JobOutcome runDeclarative(const JobSpec &spec);

    /** The thread count run() would use for @p opts. */
    static unsigned effectiveThreads(unsigned requested,
                                     std::size_t num_jobs);

  private:
    JobResult runOne(const JobSpec &spec, unsigned index) const;

    SweepOptions _opts;
};

/**
 * Whether two StatsRegistry JSON dumps agree once every top-level
 * group whose name ends in one of @p ignored is dropped. The default
 * drops `<sys>.prof`, whose host nanoseconds differ run to run;
 * everything else a System dumps is simulated and must match byte
 * for byte.
 */
bool sameStats(const std::string &a, const std::string &b,
               const std::vector<std::string> &ignored = {".prof"});

/**
 * Compare two runs of the same manifest job-by-job (ids, success,
 * and stats via sameStats()). Returns "" when identical, else a
 * description of the first mismatch -- the serial-vs-parallel
 * determinism check.
 */
std::string compareRuns(const SweepResults &a, const SweepResults &b);

} // namespace sweep
} // namespace neummu

#endif // NEUMMU_SWEEP_SWEEP_ENGINE_HH
