#include "sweep/result_sink.hh"

#include <cstdio>
#include <ostream>

#include "common/logging.hh"
#include "common/stats_registry.hh"
#include "sweep/json_lite.hh"

namespace neummu {
namespace sweep {

namespace {

using stats::jsonEscape;

void
writeSeconds(std::ostream &os, double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", s);
    os << buf;
}

/** Embed a registry dump, re-indented under the job object. */
void
spliceStats(std::ostream &os, const std::string &dump)
{
    // The registry dump is "{\n  ...\n}\n"; deepen each line by one
    // job level (6 spaces) and drop the trailing newline.
    std::string out;
    out.reserve(dump.size() + dump.size() / 4);
    for (std::size_t i = 0; i < dump.size(); i++) {
        const char c = dump[i];
        if (c == '\n' && i + 1 < dump.size())
            out += "\n      ";
        else if (c != '\n')
            out += c;
    }
    os << out;
}

/**
 * RFC-4180 quoting: grid-generated job ids join clauses with ','
 * (and may embed whole workload specs), so any field that carries a
 * comma, quote, or newline is quoted with internal quotes doubled.
 */
std::string
csvField(const std::string &text)
{
    if (text.find_first_of(",\"\n") == std::string::npos)
        return text;
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** One CSV row; the value text is spliced verbatim from the dump. */
void
csvRow(std::ostream &os, const std::string &job, const char *status,
       const std::string &group, const std::string &stat,
       const std::string &value)
{
    os << csvField(job) << "," << status << "," << csvField(group)
       << "," << csvField(stat) << "," << value << "\n";
}

} // namespace

void
ResultSink::writeJson(std::ostream &os, const SweepResults &results,
                      const SinkOptions &opts)
{
    const SweepSummary &sum = results.summary;
    os << "{\n  \"schema\": \"neummu-sweep-1\",\n";
    os << "  \"sweep\": {\n";
    os << "    \"jobs\": " << sum.jobs << ",\n";
    os << "    \"failures\": " << sum.failures;
    if (opts.includeTiming) {
        // The thread count is a run-environment fact like the wall
        // clocks: with timing excluded the document must be
        // byte-identical across -j values (the check.sh cmp gate).
        os << ",\n    \"threads\": " << sum.threads;
        os << ",\n    \"wallSeconds\": ";
        writeSeconds(os, sum.wallSeconds);
        if (sum.haveSerialBaseline) {
            os << ",\n    \"serialWallSeconds\": ";
            writeSeconds(os, sum.serialWallSeconds);
            os << ",\n    \"speedup\": ";
            writeSeconds(os, sum.speedup);
            os << ",\n    \"serialMatchesParallel\": "
               << (sum.serialMatchesParallel ? "true" : "false");
        }
    }
    os << "\n  },\n";
    os << "  \"jobs\": [";
    bool first = true;
    for (const JobResult &job : results.jobs) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    {\n      \"id\": \"" << jsonEscape(job.id)
           << "\",\n      \"ok\": " << (job.ok ? "true" : "false");
        if (!job.ok) {
            os << ",\n      \"error\": \"" << jsonEscape(job.error)
               << "\"";
        } else {
            os << ",\n      \"reps\": " << job.reps;
            os << ",\n      \"deterministic\": "
               << (job.deterministic ? "true" : "false");
            os << ",\n      \"allDone\": "
               << (job.outcome.allDone ? "true" : "false");
            os << ",\n      \"totalCycles\": "
               << job.outcome.totalCycles;
            if (opts.includeTiming) {
                os << ",\n      \"wallSeconds\": ";
                writeSeconds(os, job.wallSeconds);
            }
            if (!job.outcome.statsJson.empty()) {
                os << ",\n      \"stats\": ";
                spliceStats(os, job.outcome.statsJson);
            }
        }
        os << "\n    }";
    }
    os << "\n  ]\n}\n";
}

void
ResultSink::writeCsv(std::ostream &os, const SweepResults &results)
{
    os << "job,ok,group,stat,value\n";
    for (const JobResult &job : results.jobs) {
        if (!job.ok) {
            csvRow(os, job.id, "error", "", "", "");
            continue;
        }
        csvRow(os, job.id, "ok", "", "totalCycles",
               std::to_string(job.outcome.totalCycles));
        if (job.outcome.statsJson.empty())
            continue;
        // Re-read the registry dump and flatten every group. Number
        // tokens are re-emitted verbatim, so CSV and JSON can never
        // disagree on a value's spelling.
        JsonValue dump;
        try {
            dump = parseJson(job.outcome.statsJson);
        } catch (const JsonError &e) {
            // A dump the registry wrote but this parser cannot read
            // is a bug, not a data condition.
            NEUMMU_PANIC(std::string("unparseable stats dump for "
                                     "job ") +
                         job.id + ": " + e.what());
        }
        for (const auto &[group_name, group] : dump.members) {
            if (!group.isObject())
                continue;
            for (const auto &[stat_name, value] : group.members) {
                if (value.isNumber()) {
                    csvRow(os, job.id, "ok", group_name, stat_name,
                           value.text);
                } else if (value.isObject()) {
                    // Averages: {mean, count, min, max}.
                    for (const auto &[field, number] : value.members)
                        if (number.isNumber())
                            csvRow(os, job.id, "ok", group_name,
                                   stat_name + "." + field,
                                   number.text);
                }
            }
        }
    }
}

} // namespace sweep
} // namespace neummu
