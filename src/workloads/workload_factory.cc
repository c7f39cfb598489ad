#include "workloads/workload_factory.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/text.hh"
#include "workloads/dense_dnn_workload.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/models.hh"
#include "workloads/synthetic_workload.hh"
#include "workloads/trace_workload.hh"

namespace neummu {

namespace {

std::string
joined(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += sep;
        out += item;
    }
    return out;
}

/** Consume params[key], erasing it so leftovers can be reported. */
std::string
take(std::map<std::string, std::string> &params, const std::string &key,
     const std::string &fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    std::string value = it->second;
    params.erase(it);
    return value;
}

std::uint64_t
takeUint(std::map<std::string, std::string> &params,
         const std::string &key, std::uint64_t fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    const std::uint64_t v = parseSizeBytesChecked(it->second);
    params.erase(it);
    return v;
}

double
takeDouble(std::map<std::string, std::string> &params,
           const std::string &key, double fallback)
{
    const auto it = params.find(key);
    if (it == params.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        throw WorkloadError("malformed number '" + it->second +
                            "' for workload parameter " + key);
    params.erase(it);
    return v;
}

void
rejectLeftovers(const std::string &kind,
                const std::map<std::string, std::string> &params)
{
    if (params.empty())
        return;
    std::string keys;
    for (const auto &[key, value] : params) {
        (void)value;
        keys += (keys.empty() ? "" : ", ") + key;
    }
    throw WorkloadError("unknown " + kind +
                        " workload parameter(s): " + keys);
}

WorkloadId
workloadIdFromName(const std::string &name)
{
    const std::string want = lowered(name);
    std::vector<std::string> known;
    for (const WorkloadId id : allWorkloads()) {
        std::string candidate = lowered(workloadName(id));
        known.push_back(workloadName(id));
        if (candidate == want)
            return id;
        // Accept "CNN1" for "CNN-1".
        candidate.erase(std::remove(candidate.begin(), candidate.end(),
                                    '-'),
                        candidate.end());
        if (candidate == want)
            return id;
    }
    throw WorkloadError("unknown dense model '" + name +
                        "' (valid: " + joined(known, ", ") + ")");
}

std::unique_ptr<Workload>
makeDense(std::map<std::string, std::string> params)
{
    DenseDnnWorkloadConfig cfg;
    cfg.workload = workloadIdFromName(take(params, "model", "CNN1"));
    cfg.batch = unsigned(takeUint(params, "batch", 1));
    // layers=N truncates the workload to its first N layers (the
    // golden matrix and quick smokes use short prefixes).
    const std::uint64_t layers = takeUint(params, "layers", 0);
    if (layers > 0) {
        cfg.layerOverride = makeWorkload(cfg.workload, cfg.batch).layers;
        if (layers < cfg.layerOverride.size())
            cfg.layerOverride.resize(layers);
    }
    rejectLeftovers("dense", params);
    return std::make_unique<DenseDnnWorkload>(std::move(cfg));
}

std::unique_ptr<Workload>
makeEmbedding(std::map<std::string, std::string> params)
{
    EmbeddingWorkloadConfig cfg;
    const std::string model = lowered(take(params, "model", "dlrm"));
    if (model == "dlrm")
        cfg.spec = makeDlrm();
    else if (model == "ncf")
        cfg.spec = makeNcf();
    else
        throw WorkloadError("unknown embedding model '" + model +
                            "' (dlrm|ncf)");
    cfg.batch = unsigned(takeUint(params, "batch", 4));

    const std::string mode = lowered(take(params, "mode", "inference"));
    if (mode == "inference")
        cfg.mode = EmbeddingWorkloadMode::Inference;
    else if (mode == "paging")
        cfg.mode = EmbeddingWorkloadMode::DemandPaging;
    else
        throw WorkloadError("unknown embedding mode '" + mode +
                            "' (inference|paging)");

    const std::string policy = lowered(take(params, "policy", "fast"));
    if (policy == "host" || policy == "baseline")
        cfg.policy = EmbeddingPolicy::HostStagedCopy;
    else if (policy == "slow")
        cfg.policy = EmbeddingPolicy::NumaSlow;
    else if (policy == "fast")
        cfg.policy = EmbeddingPolicy::NumaFast;
    else
        throw WorkloadError("unknown embedding policy '" + policy +
                            "' (host|slow|fast)");

    cfg.seed = takeUint(params, "seed", cfg.seed);
    rejectLeftovers("embedding", params);
    return std::make_unique<EmbeddingWorkload>(std::move(cfg));
}

std::unique_ptr<Workload>
makeSynthetic(std::map<std::string, std::string> params)
{
    SyntheticWorkloadConfig cfg;
    cfg.pattern =
        syntheticPatternFromName(take(params, "pattern", "stride"));
    cfg.footprintBytes =
        takeUint(params, "footprint", cfg.footprintBytes);
    cfg.accesses = takeUint(params, "accesses", cfg.accesses);
    cfg.accessBytes = takeUint(params, "bytes", cfg.accessBytes);
    cfg.strideBytes = takeUint(params, "stride", cfg.strideBytes);
    cfg.batchLength =
        unsigned(takeUint(params, "batch", cfg.batchLength));
    cfg.thinkCycles = takeUint(params, "think", cfg.thinkCycles);
    cfg.hotFraction = takeDouble(params, "hot", cfg.hotFraction);
    cfg.hotProbability = takeDouble(params, "phot", cfg.hotProbability);
    cfg.demandPaged =
        takeUint(params, "paged", cfg.demandPaged ? 1 : 0) != 0;
    cfg.seed = takeUint(params, "seed", cfg.seed);
    rejectLeftovers("synthetic", params);
    return std::make_unique<SyntheticWorkload>(std::move(cfg));
}

std::unique_ptr<Workload>
makeTrace(std::map<std::string, std::string> params)
{
    TraceWorkloadConfig cfg;
    cfg.path = take(params, "path", "");
    if (cfg.path.empty())
        throw WorkloadError("trace workload needs path=<file.jsonl>");
    cfg.mapPages = takeUint(params, "map", 1) != 0;
    rejectLeftovers("trace", params);
    return std::make_unique<TraceWorkload>(std::move(cfg));
}

WorkloadSpec
parseWorkloadSpecChecked(const std::string &text)
{
    WorkloadSpec spec;
    const std::size_t colon = text.find(':');
    spec.kind = lowered(text.substr(0, colon));
    if (spec.kind.empty())
        throw WorkloadError("empty workload spec");
    if (colon == std::string::npos)
        return spec;

    std::size_t pos = colon + 1;
    while (pos < text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string pair = text.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            throw WorkloadError("workload parameter '" + pair +
                                "' is not key=value (in spec '" + text +
                                "')");
        spec.params[lowered(pair.substr(0, eq))] = pair.substr(eq + 1);
        pos = comma + 1;
    }
    return spec;
}

} // namespace

WorkloadSpec
parseWorkloadSpec(const std::string &text)
{
    try {
        return parseWorkloadSpecChecked(text);
    } catch (const WorkloadError &e) {
        NEUMMU_FATAL(e.what());
    }
}

std::uint64_t
parseSizeBytesChecked(const std::string &text)
{
    if (text.empty())
        throw WorkloadError("empty size literal");
    constexpr std::uint64_t limit =
        std::numeric_limits<std::uint64_t>::max();
    const auto overflow = [&text] {
        return WorkloadError("size literal '" + text +
                             "' does not fit in 64 bits");
    };
    std::size_t end = 0;
    std::uint64_t value = 0;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end]))) {
        const std::uint64_t digit = std::uint64_t(text[end] - '0');
        if (value > (limit - digit) / 10)
            throw overflow();
        value = value * 10 + digit;
        end++;
    }
    if (end == 0)
        throw WorkloadError("malformed size literal '" + text + "'");
    if (end == text.size())
        return value;
    if (end + 1 != text.size())
        throw WorkloadError("malformed size literal '" + text + "'");
    unsigned shift = 0;
    switch (std::tolower(static_cast<unsigned char>(text[end]))) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      default:
        throw WorkloadError("unknown size suffix in '" + text + "'");
    }
    if (value > (limit >> shift))
        throw overflow();
    return value << shift;
}

std::uint64_t
parseSizeBytes(const std::string &text)
{
    try {
        return parseSizeBytesChecked(text);
    } catch (const WorkloadError &e) {
        NEUMMU_FATAL(e.what());
    }
}

std::unique_ptr<Workload>
makeWorkloadFromSpecChecked(const std::string &text)
{
    WorkloadSpec spec = parseWorkloadSpecChecked(text);
    if (spec.kind == "dense")
        return makeDense(std::move(spec.params));
    if (spec.kind == "embedding")
        return makeEmbedding(std::move(spec.params));
    if (spec.kind == "synthetic")
        return makeSynthetic(std::move(spec.params));
    if (spec.kind == "trace")
        return makeTrace(std::move(spec.params));
    throw WorkloadError("unknown workload kind '" + spec.kind +
                        "'; valid kinds:\n  " +
                        joined(listWorkloads(), "\n  "));
}

std::unique_ptr<Workload>
makeWorkloadFromSpec(const std::string &text)
{
    try {
        return makeWorkloadFromSpecChecked(text);
    } catch (const WorkloadError &e) {
        NEUMMU_FATAL(e.what());
    }
}

std::vector<std::unique_ptr<Workload>>
makeWorkloadsFromListChecked(const std::string &list)
{
    std::vector<std::unique_ptr<Workload>> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        std::size_t semi = list.find(';', pos);
        if (semi == std::string::npos)
            semi = list.size();
        const std::string spec = list.substr(pos, semi - pos);
        if (!spec.empty())
            out.push_back(makeWorkloadFromSpecChecked(spec));
        pos = semi + 1;
    }
    if (out.empty())
        throw WorkloadError("no workload specs in '" + list + "'");
    return out;
}

std::vector<std::unique_ptr<Workload>>
makeWorkloadsFromList(const std::string &list)
{
    try {
        return makeWorkloadsFromListChecked(list);
    } catch (const WorkloadError &e) {
        NEUMMU_FATAL(e.what());
    }
}

const std::vector<std::string> &
workloadFactoryKinds()
{
    static const std::vector<std::string> kinds{
        "dense", "embedding", "synthetic", "trace"};
    return kinds;
}

std::vector<std::string>
listWorkloads()
{
    return {
        "dense: model=CNN1..RNN3 batch=N layers=N",
        "embedding: model=dlrm|ncf batch=N mode=inference|paging "
        "policy=host|slow|fast seed=N",
        "synthetic: pattern=stride|uniform|hotset|chase footprint=SZ "
        "accesses=N bytes=SZ stride=SZ batch=N think=N hot=F phot=F "
        "paged=0|1 seed=N",
        "trace: path=FILE map=0|1",
    };
}

std::string
workloadFactoryHelp()
{
    // Derived from listWorkloads() so the one-line help can never
    // drift from the authoritative per-kind summaries.
    return joined(listWorkloads(), " | ");
}

} // namespace neummu
