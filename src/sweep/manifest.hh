/**
 * @file
 * Job-manifest surface of the sweep service. Two input formats
 * produce the same JobSpec list:
 *
 * JSONL manifest -- one JSON object per line; blank lines and lines
 * starting with '#' are skipped:
 *
 *   {"id": "ptw32", "set": {"mmu.design": "neummu", "mmu.numPtws": 32},
 *    "workloads": ["dense:model=CNN1,batch=1"], "reps": 1}
 *
 *   id         optional (defaults to "job<line-index>"); must be
 *              unique across the manifest
 *   set        ordered ConfigBinder overrides (numbers and bools are
 *              coerced to their string form)
 *   workloads  array of workload-factory specs (or one spec string);
 *              one tenant per NPU slot. Optional here: a serving job
 *              (serve.enabled=1) makes its own traffic, and a job
 *              with neither fails alone when it runs
 *   reps       optional repeat count (reps > 1 cross-checks
 *              determinism)
 *   limit      optional event-queue run limit in ticks
 *
 * Grid spec -- a compact cross-product expansion for the CLI:
 *
 *   "mmu.design=neummu;mmu.numPtws=8|16|32;workloads=dense:model=CNN1"
 *
 *   "numNpus=4;serve.enabled=1;serve.process=poisson;limit=2000000"
 *
 * ';'-separated clauses of key=v1|v2|..., expanded in clause order
 * (rightmost fastest). 'workloads', 'reps' and 'limit' are job fields
 * (tenants within a workloads value separated by '+'; reps and limit
 * parsed like the manifest's); every other key is a ConfigBinder
 * override. Job ids are built from the varying keys.
 *
 * All errors are user errors and throw ManifestError.
 */

#ifndef NEUMMU_SWEEP_MANIFEST_HH
#define NEUMMU_SWEEP_MANIFEST_HH

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/sweep_engine.hh"

namespace neummu {
namespace sweep {

/** User error in a manifest file or grid spec. */
class ManifestError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Parse a JSONL manifest from @p in (@p what names it in errors).
 * Every job starts from @p base before its "set" overrides apply.
 */
std::vector<JobSpec> parseManifest(std::istream &in,
                                   const std::string &what,
                                   const SystemConfig &base);

/** parseManifest over the file at @p path. */
std::vector<JobSpec> loadManifest(const std::string &path,
                                  const SystemConfig &base);

/** Expand a grid spec (see file comment) into jobs over @p base. */
std::vector<JobSpec> expandGrid(const std::string &spec,
                                const SystemConfig &base);

} // namespace sweep
} // namespace neummu

#endif // NEUMMU_SWEEP_MANIFEST_HH
