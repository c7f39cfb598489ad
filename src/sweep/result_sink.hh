/**
 * @file
 * Merges the per-job StatsRegistry dumps of one sweep into a single
 * schema-versioned JSON document, plus a flat long-format CSV for
 * plotting. Jobs are emitted in manifest order and every simulated
 * value is spliced byte-for-byte from the job's registry dump, so
 * with timing excluded (SinkOptions::includeTiming = false) the
 * merged output of a parallel run is byte-identical to the serial
 * run -- the property check.sh pins on the golden matrix.
 *
 * JSON schema ("neummu-sweep-1"):
 *
 *   {
 *     "schema": "neummu-sweep-1",
 *     "sweep": { "jobs": N, "failures": K,
 *                "threads": J, "wallSeconds": S,
 *                "serialWallSeconds": S, "speedup": X,
 *                "serialMatchesParallel": true },
 *     "jobs": [
 *       { "id": "...", "ok": true, "reps": R,
 *         "deterministic": true, "allDone": true,
 *         "totalCycles": C, "wallSeconds": S,
 *         "stats": { ...full StatsRegistry dump... } },
 *       { "id": "...", "ok": false, "error": "..." } ] }
 *
 * Run-environment fields (threads, wallSeconds, serialWallSeconds,
 * speedup) appear only when includeTiming is on, so a timing-free
 * document depends solely on the simulated results.
 *
 * CSV: header "job,ok,group,stat,value"; one row per scalar of every
 * successful job's dump (averages flatten to .mean/.count/.min/.max),
 * plus one "<job>,ok,,totalCycles,<c>" row; failed jobs emit a
 * single "<job>,error,,," row. Fields containing commas/quotes
 * (grid-generated job ids do) are RFC-4180 quoted.
 */

#ifndef NEUMMU_SWEEP_RESULT_SINK_HH
#define NEUMMU_SWEEP_RESULT_SINK_HH

#include <iosfwd>

#include "sweep/sweep_engine.hh"

namespace neummu {
namespace sweep {

struct SinkOptions
{
    /** Emit wall-clock fields (off for byte-stable comparisons). */
    bool includeTiming = true;
};

/** The merged-output writer. Stateless; all entry points const. */
class ResultSink
{
  public:
    static void writeJson(std::ostream &os, const SweepResults &results,
                          const SinkOptions &opts = {});

    static void writeCsv(std::ostream &os, const SweepResults &results);
};

} // namespace sweep
} // namespace neummu

#endif // NEUMMU_SWEEP_RESULT_SINK_HH
