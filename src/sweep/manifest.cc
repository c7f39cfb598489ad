#include "sweep/manifest.hh"

#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "sweep/json_lite.hh"

namespace neummu {
namespace sweep {

namespace {

/** Manifest field value coerced to the binder's string domain. */
std::string
coerced(const JsonValue &v, const std::string &what)
{
    switch (v.kind) {
      case JsonValue::Kind::String: return v.text;
      case JsonValue::Kind::Number: return v.text; // raw token
      case JsonValue::Kind::Bool: return v.boolean ? "1" : "0";
      default:
        throw ManifestError(what +
                            ": value must be a string, number, or "
                            "bool");
    }
}

std::uint64_t
coercedUint(const JsonValue &v, const std::string &what)
{
    if (!v.isNumber())
        throw ManifestError(what + ": value must be a number");
    const double d = v.number();
    // 0x1p64 first: converting a larger double to uint64 is undefined.
    if (d < 0 || d >= 0x1p64 || d != double(std::uint64_t(d)))
        throw ManifestError(what +
                            ": value must be a non-negative integer");
    return std::uint64_t(d);
}

/** A grid clause value read with the manifest's unsigned rule, so
 *  "-1" and "2x" are errors instead of wrapping or truncating. */
std::uint64_t
gridUint(const std::string &value, const std::string &what)
{
    JsonValue parsed;
    try {
        parsed = parseJson(value);
    } catch (const JsonError &) {
        throw ManifestError(what + ": '" + value +
                            "' is not a non-negative integer");
    }
    return coercedUint(parsed, what);
}

unsigned
checkedReps(std::uint64_t reps, const std::string &what)
{
    if (reps == 0 || reps > std::numeric_limits<unsigned>::max())
        throw ManifestError(what + ": reps must be in [1, 2^32)");
    return unsigned(reps);
}

JobSpec
jobFromLine(const JsonValue &line, const std::string &what,
            const SystemConfig &base, unsigned index)
{
    if (!line.isObject())
        throw ManifestError(what + ": manifest line is not an object");

    JobSpec job;
    job.base = base;
    job.id = "job" + std::to_string(index);

    for (const auto &[key, value] : line.members) {
        if (key == "id") {
            if (!value.isString() || value.text.empty())
                throw ManifestError(what +
                                    ": id must be a non-empty string");
            job.id = value.text;
        } else if (key == "set") {
            if (!value.isObject())
                throw ManifestError(what + ": set must be an object");
            for (const auto &[set_key, set_value] : value.members)
                job.overrides.emplace_back(
                    set_key,
                    coerced(set_value, what + ": set." + set_key));
        } else if (key == "workloads") {
            if (value.isString()) {
                job.workloads.push_back(value.text);
            } else if (value.isArray()) {
                for (const JsonValue &item : value.items) {
                    if (!item.isString())
                        throw ManifestError(
                            what + ": workloads entries must be "
                                   "strings");
                    job.workloads.push_back(item.text);
                }
            } else {
                throw ManifestError(what +
                                    ": workloads must be a string or "
                                    "an array of strings");
            }
        } else if (key == "reps") {
            job.reps =
                checkedReps(coercedUint(value, what + ": reps"), what);
        } else if (key == "limit") {
            job.limit = Tick(coercedUint(value, what + ": limit"));
        } else {
            throw ManifestError(
                what + ": unknown manifest field '" + key +
                "' (id, set, workloads, reps, limit)");
        }
    }

    return job;
}

} // namespace

std::vector<JobSpec>
parseManifest(std::istream &in, const std::string &what,
              const SystemConfig &base)
{
    std::vector<JobSpec> jobs;
    std::set<std::string> ids;
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        line_no++;
        // Skip blank and '#'-comment lines (JSONL never starts a
        // value with '#').
        std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        const std::string where =
            what + ":" + std::to_string(line_no);
        JsonValue parsed;
        try {
            parsed = parseJson(line);
        } catch (const JsonError &e) {
            throw ManifestError(where + ": " + e.what());
        }
        JobSpec job = jobFromLine(parsed, where, base,
                                  unsigned(jobs.size()));
        if (!ids.insert(job.id).second)
            throw ManifestError(where + ": duplicate job id '" +
                                job.id + "'");
        jobs.push_back(std::move(job));
    }
    if (jobs.empty())
        throw ManifestError(what + ": manifest has no jobs");
    return jobs;
}

std::vector<JobSpec>
loadManifest(const std::string &path, const SystemConfig &base)
{
    std::ifstream in(path);
    if (!in)
        throw ManifestError("cannot open manifest " + path);
    return parseManifest(in, path, base);
}

std::vector<JobSpec>
expandGrid(const std::string &spec, const SystemConfig &base)
{
    struct Clause
    {
        std::string key;
        std::vector<std::string> values;
    };
    std::vector<Clause> clauses;

    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t semi = spec.find(';', pos);
        if (semi == std::string::npos)
            semi = spec.size();
        const std::string clause_text = spec.substr(pos, semi - pos);
        pos = semi + 1;
        if (clause_text.empty())
            continue;
        const std::size_t eq = clause_text.find('=');
        if (eq == std::string::npos || eq == 0)
            throw ManifestError("grid clause '" + clause_text +
                                "' is not key=v1|v2|...");
        Clause clause;
        clause.key = clause_text.substr(0, eq);
        std::size_t vpos = eq + 1;
        while (vpos <= clause_text.size()) {
            std::size_t bar = clause_text.find('|', vpos);
            if (bar == std::string::npos)
                bar = clause_text.size();
            const std::string value =
                clause_text.substr(vpos, bar - vpos);
            // Reject every empty alternative ("8|" or "8||16"), not
            // just an empty clause: a trailing '|' typo must be an
            // up-front error, not a half-missing sweep at run time.
            if (value.empty())
                throw ManifestError("grid clause '" + clause_text +
                                    "' has an empty value");
            clause.values.push_back(value);
            vpos = bar + 1;
        }
        if (clause.values.empty())
            throw ManifestError("grid clause '" + clause_text +
                                "' has no values");
        clauses.push_back(std::move(clause));
    }
    if (clauses.empty())
        throw ManifestError("empty grid spec");

    std::vector<JobSpec> jobs;
    std::set<std::string> ids;
    std::vector<std::size_t> cursor(clauses.size(), 0);
    for (;;) {
        JobSpec job;
        job.base = base;
        std::string id;
        for (std::size_t c = 0; c < clauses.size(); c++) {
            const Clause &clause = clauses[c];
            const std::string &value = clause.values[cursor[c]];
            const bool varies = clause.values.size() > 1;
            if (clause.key == "workloads") {
                // Tenants within one grid value are separated by '+'
                // (';' already separates clauses).
                std::size_t wpos = 0;
                while (wpos <= value.size()) {
                    std::size_t plus = value.find('+', wpos);
                    if (plus == std::string::npos)
                        plus = value.size();
                    const std::string wl =
                        value.substr(wpos, plus - wpos);
                    if (!wl.empty())
                        job.workloads.push_back(wl);
                    wpos = plus + 1;
                }
            } else if (clause.key == "reps") {
                job.reps =
                    checkedReps(gridUint(value, "grid reps"), "grid");
            } else if (clause.key == "limit") {
                job.limit = Tick(gridUint(value, "grid limit"));
            } else {
                job.overrides.emplace_back(clause.key, value);
            }
            if (varies)
                id += (id.empty() ? "" : ",") + clause.key + "=" +
                      value;
        }
        job.id = id.empty() ? "job" + std::to_string(jobs.size())
                            : id;
        // Ids key the merged output; a repeated grid value (e.g.
        // seed=1|1) would silently shadow a job downstream.
        if (!ids.insert(job.id).second)
            throw ManifestError("grid spec produces duplicate job "
                                "id '" + job.id +
                                "' (repeated value in a clause?)");
        jobs.push_back(std::move(job));

        // Odometer: rightmost clause varies fastest.
        std::size_t c = clauses.size();
        while (c > 0) {
            c--;
            if (++cursor[c] < clauses[c].values.size())
                break;
            cursor[c] = 0;
            if (c == 0)
                return jobs;
        }
    }
}

} // namespace sweep
} // namespace neummu
