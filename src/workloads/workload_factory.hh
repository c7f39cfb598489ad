/**
 * @file
 * String-keyed workload factory: turns a compact spec string into a
 * Workload, so benches, examples, and scripts can select traffic
 * sources by name (--workloads=dense:model=CNN1;synthetic:pattern=
 * uniform,accesses=2048).
 *
 * Spec grammar:  kind[:key=value[,key=value...]]
 *
 *   dense:model=CNN1..RNN3,batch=N,layers=N
 *   embedding:model=dlrm|ncf,batch=N,mode=inference|paging,
 *             policy=host|slow|fast,seed=N
 *   synthetic:pattern=stride|uniform|hotset|chase,footprint=SZ,
 *             accesses=N,bytes=SZ,stride=SZ,batch=N,think=N,hot=F,
 *             phot=F,paged=0|1,seed=N
 *   trace:path=FILE,map=0|1
 *
 * Sizes (SZ) accept K/M/G suffixes. Unknown kinds, keys or values
 * never silently fall back to defaults: every entry point throws
 * WorkloadError, so a sweep job fails alone and a CLI reports it.
 */

#ifndef NEUMMU_WORKLOADS_WORKLOAD_FACTORY_HH
#define NEUMMU_WORKLOADS_WORKLOAD_FACTORY_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hh"

namespace neummu {

/**
 * A parsed spec: kind plus key=value parameters. The take*() readers
 * consume parameters, so rejectLeftovers() can name the unknown ones.
 */
struct WorkloadSpec
{
    std::string kind;
    std::map<std::string, std::string> params;

    /** Remove and return params[key]; @p fallback when absent. */
    std::string take(const std::string &key, const std::string &fallback);
    /** take() read as a size literal (parseSizeBytesChecked). */
    std::uint64_t takeUint(const std::string &key, std::uint64_t fallback);
    /** take() read as a number. */
    double takeDouble(const std::string &key, double fallback);
    /** Throw if a parameter is left; @p what names the spec family
     *  ("workload", "request model"). */
    void rejectLeftovers(const std::string &what) const;
};

/** Parse "kind:k=v,k=v". Throws WorkloadError on malformed input. */
WorkloadSpec parseWorkloadSpec(const std::string &text);

/** Size literal with optional K/M/G suffix ("64K"). Throws
 *  WorkloadError on junk. */
std::uint64_t parseSizeBytesChecked(const std::string &text);

/** Instantiate one workload from a spec string. Throws WorkloadError
 *  on junk. */
std::unique_ptr<Workload> makeWorkloadFromSpecChecked(
    const std::string &text);

/**
 * Instantiate every ';'-separated spec of @p list, in order (the
 * usual value of a --workloads= option). Throws WorkloadError on junk.
 */
std::vector<std::unique_ptr<Workload>> makeWorkloadsFromListChecked(
    const std::string &list);

/** The registered workload kinds, for help text and docs. */
const std::vector<std::string> &workloadFactoryKinds();

/**
 * Every registered workload kind in the spec form it is written in
 * ("dense:model=CNN1..RNN3,batch=N,layers=N"), in registration order.
 * The unknown-kind error enumerates exactly this list, so a typo'd
 * spec tells the user what would have worked.
 */
std::vector<std::string> listWorkloads();

} // namespace neummu

#endif // NEUMMU_WORKLOADS_WORKLOAD_FACTORY_HH
