/**
 * @file
 * neummu_sweep: run a manifest of simulation jobs across a worker
 * pool. The one front door of the simulator -- every job builds its
 * own System from a JSONL manifest line (or a grid-spec cross
 * product) via the ConfigBinder + workload factory, runs it to
 * completion or to its cycle limit, and the merged StatsRegistry
 * dumps land in one schema-versioned JSON plus a flat CSV. Serving
 * jobs (serve.enabled=1 plus a limit) print their SLO report, and
 * traced jobs (trace.enabled=1) their per-stage latency
 * decomposition and, with --trace-dir, a Chrome trace each.
 *
 *   neummu_sweep --manifest=jobs.jsonl -j 4 --json=out.json
 *   neummu_sweep --grid="mmu.design=neummu;mmu.numPtws=8|32|128;\
 *                 workloads=dense:model=CNN1,batch=1" -j 4
 *   neummu_sweep --grid="numNpus=4;serve.enabled=1;\
 *                 serve.process=poisson;limit=2000000"
 *   neummu_sweep --grid="workloads=dense:model=CNN1,layers=4" \
 *       --set=trace.enabled=1 --trace-dir=traces
 *
 * Options:
 *   --manifest=FILE     JSONL manifest (see src/sweep/manifest.hh)
 *   --grid=SPEC         grid-spec cross product instead of a manifest
 *   -j N / --jobs=N     worker threads (0 = hardware concurrency)
 *   --set=K=V;K=V;...   ConfigBinder overrides applied to every job
 *                       (before the job's own "set")
 *   --reps=N            override every job's rep count
 *   --json=FILE         write the merged JSON document
 *   --csv=FILE          write the flat CSV
 *   --collapsed=FILE    write flamegraph-compatible collapsed stacks
 *                       of the host time merged over every profiled
 *                       job (run with --set=sim.profile=1)
 *   --trace-dir=DIR     write DIR/<job id>.trace.json (Chrome
 *                       trace-event JSON, Perfetto-loadable) for every
 *                       job that ran with trace.enabled=1
 *   --timing=0|1        include wall-clock fields (default 1; 0 makes
 *                       output byte-stable for comparisons)
 *   --serial-baseline=1 run the manifest serially first, verify the
 *                       parallel results match byte-for-byte, and
 *                       record serial wall clock + speedup
 *   --strict=1          exit non-zero when any job failed
 *   --quiet=1           suppress per-job progress lines and the
 *                       serving / trace reports
 *   --list-keys         print the ConfigBinder key table and exit
 *   --list-workloads    print the workload factory kinds and exit
 *
 * Exit codes: 0 success; 1 usage/manifest error (fatal); 2 a
 * requested --json/--csv/--collapsed file or --trace-dir directory
 * could not be written (checked before any job runs); 3 job failures
 * under --strict; 4 serial/parallel divergence.
 *
 * Host-time attribution: `--set=sim.profile=1` adds `<sys>.prof.*`
 * (self nanoseconds per subsystem) and `<sys>.fastpath.*` (kernel and
 * translation fast-path hit counters) to every job's dump, e.g.
 *
 *   neummu_sweep --manifest=scripts/sim_scenarios.jsonl \
 *       --set=sim.profile=1 --collapsed=stacks.txt --json=out.json
 */

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "common/logging.hh"
#include "sweep/manifest.hh"
#include "sweep/result_sink.hh"
#include "sweep/sweep_engine.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** All-digit string (the only shape "-jN" accepts). */
bool
allDigits(const std::string &s)
{
    if (s.empty())
        return false;
    for (const char c : s)
        if (c < '0' || c > '9')
            return false;
    return true;
}

/**
 * Rewrite "-j N" / "-jN" / "-j=N" into "--jobs=N" for ArgParser. The
 * compact form requires digits, so a single-dash typo like
 * "-json=out.json" is not swallowed as a thread count.
 */
std::vector<std::string>
canonicalizeArgs(int argc, char **argv)
{
    std::vector<std::string> out;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "-j" && i + 1 < argc) {
            out.push_back("--jobs=" + std::string(argv[++i]));
        } else if (arg.rfind("-j=", 0) == 0) {
            out.push_back("--jobs=" + arg.substr(3));
        } else if (arg.rfind("-j", 0) == 0 &&
                   allDigits(arg.substr(2))) {
            out.push_back("--jobs=" + arg.substr(2));
        } else {
            if (arg.rfind("--", 0) != 0)
                std::fprintf(stderr,
                             "warning: ignoring argument '%s' "
                             "(options are --key=value; -j N for "
                             "threads)\n",
                             arg.c_str());
            out.push_back(arg);
        }
    }
    return out;
}

void
printProgress(unsigned completed, unsigned total,
              const sweep::JobResult &result)
{
    if (result.ok) {
        std::printf("[%u/%u] %-40s cycles=%llu wall=%.3fs%s\n",
                    completed, total, result.id.c_str(),
                    (unsigned long long)result.outcome.totalCycles,
                    result.wallSeconds,
                    result.deterministic ? "" : "  NONDETERMINISTIC");
    } else {
        std::printf("[%u/%u] %-40s FAILED: %s\n", completed, total,
                    result.id.c_str(), result.error.c_str());
    }
    std::fflush(stdout);
}

void
printServeReport(const std::string &id, Tick cycles,
                 const serving::ServeReport &rep)
{
    std::printf("=== %s: serving report (%llu cycles) ===\n",
                id.c_str(), (unsigned long long)cycles);
    std::printf("  arrivals      %llu\n",
                (unsigned long long)rep.arrivals);
    std::printf("  completed     %llu\n",
                (unsigned long long)rep.completed);
    std::printf("  dropped       %llu\n",
                (unsigned long long)rep.dropped);
    std::printf("  unrouted      %llu\n",
                (unsigned long long)rep.unrouted);
    std::printf("  tenants       live=%llu admitted=%llu "
                "retired=%llu\n",
                (unsigned long long)rep.liveTenants,
                (unsigned long long)rep.admitted,
                (unsigned long long)rep.retired);
    std::printf("  latency       mean=%.1f p50=%llu p90=%llu "
                "p99=%llu p999=%llu cycles\n",
                rep.meanLatency, (unsigned long long)rep.p50,
                (unsigned long long)rep.p90,
                (unsigned long long)rep.p99,
                (unsigned long long)rep.p999);
    std::printf("  slo           target=%llu cycles  violations=%llu"
                "  goodput=%.4f\n",
                (unsigned long long)rep.sloLatencyCycles,
                (unsigned long long)rep.sloViolations, rep.goodput);
    if (rep.tenants.empty())
        return;
    std::printf("  %-8s %-5s %12s %12s %8s %s\n", "tenant", "slot",
                "completed", "violations", "pending", "state");
    for (const serving::ServeReport::TenantLine &t : rep.tenants)
        std::printf("  %-8s %-5u %12llu %12llu %8llu %s\n",
                    t.name.c_str(), t.slot,
                    (unsigned long long)t.completed,
                    (unsigned long long)t.violations,
                    (unsigned long long)t.pending,
                    t.draining ? "draining" : "running");
}

/**
 * The "where did p99 go" table: one partition of traced latency per
 * lifecycle level (serving requests, translation requests). Every
 * tick of every traced request is charged to exactly one stage, so
 * the "total" row equals the traced end-to-end latency sum. The ring
 * drops its oldest spans when full; then the table covers only the
 * newest requests, and its header says so.
 */
void
printDecomposition(const char *title,
                   const std::array<trace::TraceEngine::StageRow,
                                    trace::numStages> &rows,
                   std::uint64_t traced, std::uint64_t charged,
                   std::uint64_t e2e, std::uint64_t dropped)
{
    if (!traced)
        return;
    const std::string incomplete =
        dropped ? ", INCOMPLETE: " + std::to_string(dropped) +
                      " oldest spans dropped"
                : "";
    std::printf("  --- %s latency decomposition (%llu traced%s) ---\n",
                title, (unsigned long long)traced, incomplete.c_str());
    std::printf("  %-12s %10s %14s %10s %10s %7s\n", "stage",
                "requests", "totalTicks", "mean", "p99", "share");
    for (unsigned s = 0; s < trace::numStages; s++) {
        const trace::TraceEngine::StageRow &row = rows[s];
        if (!row.count)
            continue;
        std::printf("  %-12s %10llu %14llu %10.1f %10llu %6.2f%%\n",
                    trace::stageName(trace::Stage(s)),
                    (unsigned long long)row.count,
                    (unsigned long long)row.totalTicks,
                    row.hist.mean(),
                    (unsigned long long)row.hist.quantile(0.99),
                    e2e ? 100.0 * double(row.totalTicks) / double(e2e)
                        : 0.0);
    }
    std::printf("  %-12s %10s %14llu  (e2e %llu, %s)\n", "total", "",
                (unsigned long long)charged, (unsigned long long)e2e,
                charged == e2e ? "stage sum == e2e" : "MISMATCH");
}

void
printTraceReport(const std::string &id,
                 const trace::TraceEngine::Report &rep)
{
    std::printf("=== %s: trace report ===\n", id.c_str());
    std::printf("  spans         recorded=%llu emitted=%llu "
                "dropped=%llu openAtDrain=%llu\n",
                (unsigned long long)rep.spansRecorded,
                (unsigned long long)rep.spansEmitted,
                (unsigned long long)rep.dropped,
                (unsigned long long)rep.openAtDrain);
    printDecomposition("request", rep.requestStages, rep.tracedRequests,
                       rep.requestChargedTicks, rep.requestE2eTicks,
                       rep.dropped);
    printDecomposition("translation", rep.stages,
                       rep.tracedTranslations,
                       rep.translationChargedTicks,
                       rep.translationE2eTicks, rep.dropped);
    if (rep.tenants.empty())
        return;
    std::printf("  --- per-tenant traced latency (ticks) ---\n");
    std::printf("  %-8s %10s %10s %10s %10s\n", "tenant", "traced",
                "e2e p99", "queue p99", "service p99");
    for (const trace::TraceEngine::TenantRow &t : rep.tenants)
        std::printf("  t%-7u %10llu %10llu %10llu %10llu\n",
                    t.tenant, (unsigned long long)t.count,
                    (unsigned long long)t.e2e.quantile(0.99),
                    (unsigned long long)t.queue.quantile(0.99),
                    (unsigned long long)t.service.quantile(0.99));
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> canon =
        canonicalizeArgs(argc, argv);
    std::vector<char *> cargv;
    cargv.push_back(argv[0]);
    for (const std::string &arg : canon)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    const ArgParser args(int(cargv.size()), cargv.data());

    if (args.getBool("list-keys", false)) {
        std::printf("ConfigBinder keys (manifest \"set\" fields / "
                    "--set entries):\n%s",
                    sweep::binderHelp().c_str());
        return 0;
    }
    if (args.getBool("list-workloads", false)) {
        std::printf("Workload factory kinds (manifest \"workloads\" "
                    "entries):\n");
        for (const std::string &line : listWorkloads())
            std::printf("  %s\n", line.c_str());
        return 0;
    }

    const std::string manifest_path = args.get("manifest", "");
    const std::string grid_spec = args.get("grid", "");
    if (manifest_path.empty() == grid_spec.empty())
        NEUMMU_FATAL("need exactly one of --manifest=FILE or "
                     "--grid=SPEC (try --list-keys / "
                     "--list-workloads)");

    // Open every requested output before any job runs, so an
    // unwritable path costs nothing but the error.
    const std::string json_path = args.get("json", "");
    const std::string csv_path = args.get("csv", "");
    const std::string collapsed_path = args.get("collapsed", "");
    std::ofstream json_out, csv_out, collapsed_out;
    const auto openOutput = [](const std::string &path,
                               std::ofstream &out) {
        if (path.empty())
            return true;
        out.open(path, std::ios::binary | std::ios::trunc);
        if (!out)
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
        return bool(out);
    };
    if (!openOutput(json_path, json_out) ||
        !openOutput(csv_path, csv_out) ||
        !openOutput(collapsed_path, collapsed_out))
        return 2;
    const std::string trace_dir = args.get("trace-dir", "");
    if (!trace_dir.empty() &&
        (!std::filesystem::is_directory(trace_dir) ||
         ::access(trace_dir.c_str(), W_OK) != 0)) {
        std::fprintf(stderr, "error: cannot write traces to %s (not "
                             "a writable directory)\n",
                     trace_dir.c_str());
        return 2;
    }

    const unsigned threads = unsigned(args.getInt("jobs", 1));
    const bool quiet = args.getBool("quiet", false);
    const bool timing = args.getBool("timing", true);
    const bool serial_baseline =
        args.getBool("serial-baseline", false);

    try {
        // Global --set overrides form the base config every job
        // starts from.
        SystemConfig base;
        for (const std::string &entry :
             args.getList("set", "", ';')) {
            const auto [key, value] = sweep::parseOverride(entry);
            sweep::applyOverride(base, key, value);
        }

        std::vector<sweep::JobSpec> jobs =
            manifest_path.empty()
                ? sweep::expandGrid(grid_spec, base)
                : sweep::loadManifest(manifest_path, base);

        const std::int64_t reps_override = args.getInt("reps", 0);
        for (sweep::JobSpec &job : jobs) {
            if (reps_override > 0)
                job.reps = unsigned(reps_override);
            if (!trace_dir.empty())
                job.tracePath = trace_dir + "/" + job.id + ".trace.json";
        }

        sweep::SweepResults serial;
        if (serial_baseline) {
            if (!quiet)
                std::printf("serial baseline: %zu job(s) on 1 "
                            "thread\n",
                            jobs.size());
            sweep::SweepOptions serial_opts;
            serial_opts.threads = 1;
            serial = sweep::SweepEngine(serial_opts).run(jobs);
        }

        sweep::SweepOptions opts;
        opts.threads = threads;
        if (!quiet)
            opts.progress = printProgress;
        sweep::SweepEngine engine(opts);
        if (!quiet)
            std::printf("sweep: %zu job(s) on %u thread(s)\n",
                        jobs.size(),
                        sweep::SweepEngine::effectiveThreads(
                            threads, jobs.size()));
        sweep::SweepResults results = engine.run(jobs);

        if (serial_baseline) {
            const std::string diff =
                sweep::compareRuns(serial, results);
            results.summary.haveSerialBaseline = true;
            results.summary.serialWallSeconds =
                serial.summary.wallSeconds;
            results.summary.speedup =
                results.summary.wallSeconds > 0.0
                    ? serial.summary.wallSeconds /
                          results.summary.wallSeconds
                    : 0.0;
            results.summary.serialMatchesParallel = diff.empty();
            if (!diff.empty()) {
                std::fprintf(stderr,
                             "error: parallel sweep diverged from "
                             "serial baseline: %s\n",
                             diff.c_str());
                return 4;
            }
            if (!quiet)
                std::printf("serial %.3fs / parallel %.3fs -> "
                            "speedup %.2fx (byte-identical)\n",
                            results.summary.serialWallSeconds,
                            results.summary.wallSeconds,
                            results.summary.speedup);
        }

        // Reports of the finished Systems; a dropped-span warning
        // goes to stderr even under --quiet, because the
        // decomposition then covers only the newest requests.
        unsigned traced_jobs = 0;
        for (const sweep::JobResult &job : results.jobs) {
            if (!job.ok)
                continue;
            const sweep::JobOutcome &out = job.outcome;
            if (out.trace)
                traced_jobs++;
            if (out.trace && out.trace->dropped)
                std::fprintf(
                    stderr,
                    "warning: job '%s' dropped %llu trace spans; its "
                    "decomposition covers only the newest %llu "
                    "translation(s) and %llu request(s) (raise "
                    "trace.ring)\n",
                    job.id.c_str(),
                    (unsigned long long)out.trace->dropped,
                    (unsigned long long)out.trace->tracedTranslations,
                    (unsigned long long)out.trace->tracedRequests);
            if (quiet)
                continue;
            if (out.serve)
                printServeReport(job.id, out.totalCycles, *out.serve);
            if (out.trace)
                printTraceReport(job.id, *out.trace);
        }
        if (!trace_dir.empty()) {
            if (traced_jobs == 0)
                std::fprintf(stderr,
                             "warning: no job ran with "
                             "trace.enabled=1; %s holds no traces\n",
                             trace_dir.c_str());
            else
                std::printf("wrote %u Chrome trace(s) to %s\n",
                            traced_jobs, trace_dir.c_str());
        }

        sweep::SinkOptions sink;
        sink.includeTiming = timing;
        bool output_failed = false;
        const auto finishOutput = [&](std::ofstream &out,
                                      const std::string &path,
                                      const char *what) {
            out.close();
            if (out) {
                std::printf("wrote %s to %s\n", what, path.c_str());
            } else {
                std::fprintf(stderr, "error: writing %s failed\n",
                             path.c_str());
                output_failed = true;
            }
        };
        if (!json_path.empty()) {
            sweep::ResultSink::writeJson(json_out, results, sink);
            finishOutput(json_out, json_path, "merged sweep JSON");
        }
        if (!csv_path.empty()) {
            sweep::ResultSink::writeCsv(csv_out, results);
            finishOutput(csv_out, csv_path, "sweep CSV");
        }
        if (!collapsed_path.empty()) {
            SimProfiler merged;
            for (const sweep::JobResult &job : results.jobs)
                if (job.ok)
                    merged.merge(job.outcome.profile);
            const std::string stacks = merged.collapsed();
            if (stacks.empty())
                std::fprintf(stderr,
                             "warning: no job ran with sim.profile=1; "
                             "%s is empty\n",
                             collapsed_path.c_str());
            collapsed_out << stacks;
            finishOutput(collapsed_out, collapsed_path,
                         "collapsed stacks");
        }

        std::printf("sweep complete: %u job(s), %u failure(s), "
                    "%.3fs wall\n",
                    results.summary.jobs, results.summary.failures,
                    results.summary.wallSeconds);
        // A rep that dumped different stats than rep 0 means hidden
        // shared state -- always report it (even under --quiet) and
        // treat it as failure-grade under --strict, so reps-based
        // determinism cross-checks can actually gate CI.
        unsigned nondeterministic = 0;
        for (const sweep::JobResult &job : results.jobs) {
            if (job.ok && !job.deterministic) {
                nondeterministic++;
                std::printf("  NONDETERMINISTIC: %s: reps dumped "
                            "different stats\n",
                            job.id.c_str());
            }
        }
        for (const sweep::JobResult &job : results.jobs)
            if (!job.ok)
                std::printf("  failed: %s: %s\n", job.id.c_str(),
                            job.error.c_str());
        if (output_failed)
            return 2;
        if ((results.summary.failures > 0 || nondeterministic > 0) &&
            args.getBool("strict", false))
            return 3;
        return 0;
    } catch (const std::exception &e) {
        NEUMMU_FATAL(e.what());
    }
}
