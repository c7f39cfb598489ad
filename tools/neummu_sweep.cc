/**
 * @file
 * neummu_sweep: run a manifest of simulation jobs across a worker
 * pool. The batch front door of the simulator -- every job builds its
 * own System from a JSONL manifest line (or a grid-spec cross
 * product) via the ConfigBinder + workload factory, runs it to
 * completion, and the merged StatsRegistry dumps land in one
 * schema-versioned JSON plus a flat CSV.
 *
 *   neummu_sweep --manifest=jobs.jsonl -j 4 --json=out.json
 *   neummu_sweep --grid="mmu.design=neummu;mmu.numPtws=8|32|128;\
 *                 workloads=dense:model=CNN1,batch=1" -j 4
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
 *   --timing=0|1        include wall-clock fields (default 1; 0 makes
 *                       output byte-stable for comparisons)
 *   --serial-baseline=1 run the manifest serially first, verify the
 *                       parallel results match byte-for-byte, and
 *                       record serial wall clock + speedup
 *   --strict=1          exit non-zero when any job failed
 *   --quiet=1           suppress per-job progress lines
 *   --list-keys         print the ConfigBinder key table and exit
 *   --list-workloads    print the workload factory kinds and exit
 *
 * Exit codes: 0 success; 1 usage/manifest error (fatal); 2 a
 * requested --json/--csv/--collapsed file could not be written
 * (checked before any job runs); 3 job failures under --strict; 4
 * serial/parallel divergence.
 *
 * Host-time attribution: `--set=sim.profile=1` adds `<sys>.prof.*`
 * (self nanoseconds per subsystem) and `<sys>.fastpath.*` (kernel and
 * translation fast-path hit counters) to every job's dump, e.g.
 *
 *   neummu_sweep --manifest=scripts/sim_scenarios.jsonl \
 *       --set=sim.profile=1 --collapsed=stacks.txt --json=out.json
 */

#include <cstdio>
#include <cstring>
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
        if (reps_override > 0)
            for (sweep::JobSpec &job : jobs)
                job.reps = unsigned(reps_override);

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
