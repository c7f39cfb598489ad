#include "sweep/config_binder.hh"

#include <cstdlib>
#include <limits>

#include "common/text.hh"
#include "mmu/translation_factory.hh"
#include "serving/arrival.hh"
#include "system/embedding_system.hh"
#include "workloads/models.hh"
#include "workloads/request_model.hh"
#include "workloads/workload_factory.hh"

namespace neummu {
namespace sweep {

namespace {

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &expect)
{
    throw BindError("bad value '" + value + "' for sweep config key " +
                    key + " (expected " + expect + ")");
}

/** Unsigned with optional K/M/G suffix (shared size grammar). */
std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    try {
        return parseSizeBytesChecked(value);
    } catch (const WorkloadError &) {
        badValue(key, value, "an unsigned integer, K/M/G suffix ok");
    }
}

/** parseU64 for 32-bit fields: a value that does not fit is an
 *  error, never a silent truncation. */
unsigned
parseU32(const std::string &key, const std::string &value)
{
    const std::uint64_t v = parseU64(key, value);
    if (v > std::numeric_limits<unsigned>::max())
        badValue(key, value, "an unsigned integer below 2^32");
    return unsigned(v);
}

double
parseF64(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        badValue(key, value, "a number");
    return v;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    const std::string v = lowered(value);
    if (v == "1" || v == "true" || v == "on" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "off" || v == "no")
        return false;
    badValue(key, value, "0|1");
}

/**
 * mmu.design=<key>: select a registered design, guarding the
 * override-ordering trap: earlier mmu.* edits live in cfg.mmu, and a
 * later mmu.design= would silently discard them. That order is an
 * error, not a silent reset.
 */
void
setDesign(SystemConfig &cfg, const std::string &key,
          const std::string &value)
{
    const std::string design = lowered(value);
    if (!findTranslationDesign(design))
        badValue(key, value, translationDesignList());
    if (cfg.mmu) {
        throw BindError(
            key + "=" + value + " after earlier mmu.* edits would "
            "discard them; put " + key + "= before any mmu.* key");
    }
    cfg.mmuDesign = design;
}

MmuCacheKind
parseCacheKind(const std::string &key, const std::string &value)
{
    const std::string v = lowered(value);
    if (v == "none")
        return MmuCacheKind::None;
    if (v == "tpreg")
        return MmuCacheKind::TpReg;
    if (v == "tpc")
        return MmuCacheKind::Tpc;
    if (v == "uptc")
        return MmuCacheKind::Uptc;
    badValue(key, value, "none|tpreg|tpc|uptc");
}

EvictionPolicy
parseEviction(const std::string &key, const std::string &value)
{
    const std::string v = lowered(value);
    if (v == "clock")
        return EvictionPolicy::Clock;
    if (v == "lru")
        return EvictionPolicy::Lru;
    badValue(key, value, "clock|lru");
}

serving::ArrivalKind
parseArrivalKind(const std::string &key, const std::string &value)
{
    serving::ArrivalKind kind;
    if (serving::arrivalKindFromName(lowered(value), kind))
        return kind;
    std::string expect;
    for (const std::string &name : serving::arrivalKindNames()) {
        if (!expect.empty())
            expect += "|";
        expect += name;
    }
    badValue(key, value, expect);
}

/**
 * The serve.workload spec is compiled at System construction; validate
 * it at bind time so a typo fails the job, not the run.
 */
std::string
parseRequestModelSpec(const std::string &key, const std::string &value)
{
    try {
        requestModelFromSpecChecked(value);
    } catch (const WorkloadError &err) {
        throw BindError("bad value '" + value +
                        "' for sweep config key " + key + ": " +
                        err.what());
    }
    return value;
}

/**
 * The editable MMU config: the first mmu.* key materializes the
 * current design's canned config into cfg.mmu, so
 * "mmu.design=neummu mmu.numPtws=32" edits the canned NeuMMU point.
 */
MmuConfig &
editableMmu(SystemConfig &cfg)
{
    if (!cfg.mmu) {
        const TranslationDesign &design =
            translationDesign(cfg.mmuDesign);
        if (!design.mmuConfig) {
            const std::string group =
                cfg.mmuDesign == "pomtlb" ? "pom" : cfg.mmuDesign;
            throw BindError(
                "mmu.* keys tune the walker-core designs; design '" +
                cfg.mmuDesign + "' is configured via its own mmu." +
                group + ".* keys");
        }
        cfg.mmu = design.mmuConfig(cfg.pageShift);
    }
    return *cfg.mmu;
}

/**
 * preset=<name>: replace the whole machine with a canned scenario
 * config, preserving name, seed, and mmuDesign (the fields callers
 * are documented to override on the canned configs).
 */
void
applyPreset(SystemConfig &cfg, const std::string &value)
{
    const std::string v = lowered(value);
    EmbeddingModelSpec spec;
    if (v == "dlrm_paging")
        spec = makeDlrm();
    else if (v == "ncf_paging")
        spec = makeNcf();
    else
        badValue("preset", value, "dlrm_paging|ncf_paging");
    if (cfg.mmu)
        throw BindError("preset=" + value + " after earlier mmu.* "
                        "edits would discard them; put preset= "
                        "before any mmu.* key");
    const std::string name = cfg.name;
    const std::uint64_t seed = cfg.seed;
    // sim.* describes how to OBSERVE the simulation, not the machine;
    // a preset replaces the machine but keeps the kernel knobs (so
    // e.g. a base-config "sim.profile=1" survives preset jobs). The
    // zoo design sub-configs ride along for the same reason: they
    // only matter when mmuDesign selects them.
    const SimConfig sim = cfg.sim;
    const RangeMmuConfig range = cfg.rangeMmu;
    const PomTlbConfig pom = cfg.pomTlb;
    const NmtConfig nmt = cfg.nmt;
    cfg = demandPagingSystemConfig(spec, EmbeddingSystemConfig{},
                                   cfg.mmuDesign, cfg.pageShift);
    cfg.name = name;
    cfg.seed = seed;
    cfg.sim = sim;
    cfg.rangeMmu = range;
    cfg.pomTlb = pom;
    cfg.nmt = nmt;
}

/**
 * Reject an unknown key. If the key sits in a known group ("sim.foo"),
 * the error enumerates that group's valid keys, so a typo'd knob fails
 * with its actual choices instead of a pointer at --list-keys.
 */
[[noreturn]] void
unknownKey(const std::string &key)
{
    const std::size_t dot = key.find('.');
    if (dot != std::string::npos) {
        const std::string prefix = key.substr(0, dot + 1);
        std::string choices;
        for (const BinderKeyDoc &doc : binderKeyTable()) {
            if (std::string(doc.key).rfind(prefix, 0) != 0)
                continue;
            if (!choices.empty())
                choices += "|";
            choices += doc.key;
        }
        if (!choices.empty())
            throw BindError("unknown sweep config key '" + key +
                            "' in group '" + prefix.substr(0, dot) +
                            "' (valid: " + choices + ")");
    }
    throw BindError("unknown sweep config key '" + key +
                    "' (see neummu_sweep --list-keys for the key "
                    "table)");
}

} // namespace

std::pair<std::string, std::string>
parseOverride(const std::string &text)
{
    const std::size_t eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        throw BindError("override '" + text + "' is not key=value");
    return {text.substr(0, eq), text.substr(eq + 1)};
}

void
applyOverride(SystemConfig &cfg, const std::string &key,
              const std::string &value)
{
    // --- System-level knobs ---------------------------------------
    if (key == "name") {
        cfg.name = value;
    } else if (key == "seed") {
        cfg.seed = parseU64(key, value);
    } else if (key == "numNpus") {
        cfg.numNpus = parseU32(key, value);
    } else if (key == "bufferDepth") {
        cfg.bufferDepth = parseU32(key, value);
    } else if (key == "dmaBurstBytes") {
        cfg.dmaBurstBytes = parseU64(key, value);
    } else if (key == "mmu.design") {
        setDesign(cfg, key, value);
    } else if (key == "routerPolicy") {
        const std::string v = lowered(value);
        if (v == "shared")
            cfg.routerPolicy = RouterPolicy::Shared;
        else if (v == "partitioned" || v == "part")
            cfg.routerPolicy = RouterPolicy::Partitioned;
        else
            badValue(key, value, "shared|partitioned");
    } else if (key == "sharedMemory") {
        cfg.sharedMemory = parseBool(key, value);
    } else if (key == "hostDramBytes") {
        cfg.hostDramBytes = parseU64(key, value);
    } else if (key == "npuHbmBytes") {
        cfg.npuHbmBytes = parseU64(key, value);
    } else if (key == "pageShift") {
        // An edited walker config has no page-size key of its own:
        // keep it in step so a bound config never disagrees with
        // itself, whichever order the keys came in.
        cfg.pageShift = parseU32(key, value);
        if (cfg.mmu)
            cfg.mmu->pageShift = cfg.pageShift;
    } else if (key == "vaScatterShift") {
        cfg.vaScatterShift = parseU32(key, value);
    } else if (key == "preset") {
        applyPreset(cfg, value);

        // --- NPU core -------------------------------------------------
    } else if (key == "npu.dmaBurstBytes") {
        cfg.npu.dmaBurstBytes = parseU64(key, value);
    } else if (key == "npu.iaSpmBytes") {
        cfg.npu.iaSpmBytes = parseU64(key, value);
    } else if (key == "npu.wSpmBytes") {
        cfg.npu.wSpmBytes = parseU64(key, value);

        // --- Memory system --------------------------------------------
    } else if (key == "memory.channels") {
        cfg.memory.channels = parseU32(key, value);
    } else if (key == "memory.bytesPerCycle") {
        cfg.memory.bytesPerCycle = parseF64(key, value);
    } else if (key == "memory.accessLatency") {
        cfg.memory.accessLatency = Tick(parseU64(key, value));
    } else if (key == "memory.interleaveBytes") {
        cfg.memory.interleaveBytes = parseU32(key, value);

        // --- Walker-core MMU knobs (materialize cfg.mmu, see
        // editableMmu) -------------------------------------------------
    } else if (key == "mmu.numPtws") {
        editableMmu(cfg).numPtws = parseU32(key, value);
    } else if (key == "mmu.prmbSlots") {
        editableMmu(cfg).prmbSlots = parseU32(key, value);
    } else if (key == "mmu.pathCache") {
        editableMmu(cfg).pathCache = parseCacheKind(key, value);
    } else if (key == "mmu.sharedCacheEntries") {
        editableMmu(cfg).sharedCacheEntries =
            std::size_t(parseU64(key, value));
    } else if (key == "mmu.sharedCacheReplacement") {
        const std::string v = lowered(value);
        if (v == "lru")
            editableMmu(cfg).sharedCacheReplacement =
                MmuCacheReplacement::Lru;
        else if (v == "fifo")
            editableMmu(cfg).sharedCacheReplacement =
                MmuCacheReplacement::Fifo;
        else
            badValue(key, value, "lru|fifo");
    } else if (key == "mmu.walkLatencyPerLevel") {
        editableMmu(cfg).walkLatencyPerLevel = Tick(parseU64(key, value));
    } else if (key == "mmu.prefetchDepth") {
        editableMmu(cfg).prefetchDepth = parseU32(key, value);
    } else if (key == "mmu.tlb.entries") {
        editableMmu(cfg).tlb.entries = std::size_t(parseU64(key, value));
    } else if (key == "mmu.tlb.ways") {
        editableMmu(cfg).tlb.ways = std::size_t(parseU64(key, value));
    } else if (key == "mmu.tlb.hitLatency") {
        editableMmu(cfg).tlb.hitLatency = Tick(parseU64(key, value));

        // --- Design-zoo knobs (only matter when mmu.design selects the
        // matching design) ---------------------------------------------
    } else if (key == "mmu.range.entries") {
        cfg.rangeMmu.entries = std::size_t(parseU64(key, value));
    } else if (key == "mmu.range.maxPages") {
        cfg.rangeMmu.maxRangePages = parseU32(key, value);
    } else if (key == "mmu.range.walkers") {
        cfg.rangeMmu.numWalkers = parseU32(key, value);
    } else if (key == "mmu.range.hitLatency") {
        cfg.rangeMmu.hitLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.range.walkLatencyPerLevel") {
        cfg.rangeMmu.walkLatencyPerLevel = Tick(parseU64(key, value));
    } else if (key == "mmu.pom.l1Entries") {
        cfg.pomTlb.l1.entries = std::size_t(parseU64(key, value));
    } else if (key == "mmu.pom.l1HitLatency") {
        cfg.pomTlb.l1.hitLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.pom.entries") {
        cfg.pomTlb.entries = std::size_t(parseU64(key, value));
    } else if (key == "mmu.pom.ways") {
        cfg.pomTlb.ways = std::size_t(parseU64(key, value));
    } else if (key == "mmu.pom.walkers") {
        cfg.pomTlb.numWalkers = parseU32(key, value);
    } else if (key == "mmu.pom.walkLatencyPerLevel") {
        cfg.pomTlb.walkLatencyPerLevel = Tick(parseU64(key, value));
    } else if (key == "mmu.pom.memLatency") {
        cfg.pomTlb.mem.accessLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.nmt.segmentShift") {
        cfg.nmt.segmentShift = parseU32(key, value);
    } else if (key == "mmu.nmt.cacheEntries") {
        cfg.nmt.cacheEntries = std::size_t(parseU64(key, value));
    } else if (key == "mmu.nmt.units") {
        cfg.nmt.numUnits = parseU32(key, value);
    } else if (key == "mmu.nmt.hitLatency") {
        cfg.nmt.hitLatency = Tick(parseU64(key, value));
    } else if (key == "mmu.nmt.fetchLatency") {
        cfg.nmt.fetchLatency = Tick(parseU64(key, value));

        // --- Page lifecycle / oversubscription ------------------------
    } else if (key == "paging.enabled") {
        cfg.paging.enabled = parseBool(key, value);
    } else if (key == "paging.policy") {
        cfg.paging.policy = parseEviction(key, value);
    } else if (key == "paging.residentLimitBytes") {
        cfg.paging.residentLimitBytes = parseU64(key, value);
    } else if (key == "paging.residentLimitPages") {
        const std::uint64_t pages = parseU64(key, value);
        const std::uint64_t page_bytes = pageSize(cfg.pageShift);
        if (pages > std::numeric_limits<std::uint64_t>::max() /
                        page_bytes)
            badValue(key, value, "a page count below 2^64 bytes");
        cfg.paging.residentLimitBytes = pages * page_bytes;
    } else if (key == "paging.faultLatency") {
        cfg.paging.faultLatency = Tick(parseU64(key, value));
    } else if (key == "paging.homeNode") {
        cfg.paging.homeNode = parseU32(key, value);
    } else if (key == "paging.writebackOnEvict") {
        cfg.paging.writebackOnEvict = parseBool(key, value);

        // --- Open-loop serving ----------------------------------------
    } else if (key == "serve.enabled") {
        cfg.serve.enabled = parseBool(key, value);
    } else if (key == "serve.process") {
        cfg.serve.arrival.kind = parseArrivalKind(key, value);
    } else if (key == "serve.ratePerMcycle") {
        const double v = parseF64(key, value);
        if (v <= 0.0)
            badValue(key, value, "a positive rate");
        cfg.serve.arrival.ratePerMcycle = v;
    } else if (key == "serve.burstRatio") {
        const double v = parseF64(key, value);
        if (v < 1.0)
            badValue(key, value, "a ratio >= 1");
        cfg.serve.arrival.burstRatio = v;
    } else if (key == "serve.burstDwell") {
        cfg.serve.arrival.burstDwellCycles = parseU64(key, value);
    } else if (key == "serve.calmDwell") {
        cfg.serve.arrival.calmDwellCycles = parseU64(key, value);
    } else if (key == "serve.diurnalPeriod") {
        cfg.serve.arrival.diurnalPeriodCycles = parseU64(key, value);
    } else if (key == "serve.diurnalAmplitude") {
        const double v = parseF64(key, value);
        if (v < 0.0 || v >= 1.0)
            badValue(key, value, "an amplitude in [0,1)");
        cfg.serve.arrival.diurnalAmplitude = v;
    } else if (key == "serve.workload") {
        cfg.serve.workload = parseRequestModelSpec(key, value);
    } else if (key == "serve.slots") {
        cfg.serve.slots = parseU32(key, value);
    } else if (key == "serve.tenants") {
        cfg.serve.tenants = parseU32(key, value);
    } else if (key == "serve.lifetimeRequests") {
        cfg.serve.tenantLifetimeRequests = parseU64(key, value);
    } else if (key == "serve.admitGap") {
        cfg.serve.admitGapCycles = parseU64(key, value);
    } else if (key == "serve.maxAdmissions") {
        cfg.serve.maxAdmissions = parseU64(key, value);
    } else if (key == "serve.demandPaged") {
        cfg.serve.demandPaged = parseBool(key, value);
    } else if (key == "serve.sloLatency") {
        cfg.serve.sloLatencyCycles = parseU64(key, value);
    } else if (key == "serve.window") {
        cfg.serve.windowCycles = parseU64(key, value);
    } else if (key == "serve.queueLimit") {
        cfg.serve.queueLimit = parseU64(key, value);

        // --- Simulation kernel ----------------------------------------
    } else if (key == "sim.profile") {
        cfg.sim.profile = parseU64(key, value) != 0;

        // --- Lifecycle tracing ----------------------------------------
    } else if (key == "trace.enabled") {
        cfg.trace.enabled = parseBool(key, value);
    } else if (key == "trace.tailThreshold") {
        cfg.trace.tailThreshold = Tick(parseU64(key, value));
    } else if (key == "trace.autoP99") {
        cfg.trace.autoP99 = parseBool(key, value);
    } else if (key == "trace.ring") {
        cfg.trace.ring = parseU64(key, value);
    } else if (key == "trace.marks") {
        cfg.trace.marks = parseU64(key, value);
    } else {
        unknownKey(key);
    }
}

void
applyOverrides(SystemConfig &cfg, const OverrideList &overrides)
{
    for (const auto &[key, value] : overrides)
        applyOverride(cfg, key, value);
}

const std::vector<BinderKeyDoc> &
binderKeyTable()
{
    static const std::string design_doc =
        translationDesignList() +
        " (the design-zoo selector; set before mmu.*)";
    static const std::vector<BinderKeyDoc> table{
        {"name", "stats prefix of the built System"},
        {"seed", "root random seed (per-workload streams derive)"},
        {"numNpus", "NPU count; >1 shares the MMU via the router"},
        {"bufferDepth", "tile-buffer depth (2 = double buffering)"},
        {"dmaBurstBytes", "system-level DMA burst override (0 = npu)"},
        {"routerPolicy", "shared|partitioned walker arbitration"},
        {"sharedMemory", "0|1: all NPUs contend for one memory node"},
        {"hostDramBytes", "host DRAM capacity (K/M/G ok)"},
        {"npuHbmBytes", "per-NPU HBM capacity (K/M/G ok)"},
        {"pageShift", "page size of the translation stream (12|21)"},
        {"vaScatterShift", "VA-layout scatter shift (0 = packed)"},
        {"preset", "dlrm_paging|ncf_paging canned machine "
                   "(keeps name/seed/mmu.design; set mmu.design "
                   "first)"},
        {"npu.dmaBurstBytes", "per-NPU DMA burst size"},
        {"npu.iaSpmBytes", "activation scratchpad capacity"},
        {"npu.wSpmBytes", "weight scratchpad capacity"},
        {"memory.channels", "independent memory channels"},
        {"memory.bytesPerCycle", "aggregate memory bandwidth"},
        {"memory.accessLatency", "fixed access latency (cycles)"},
        {"memory.interleaveBytes", "channel interleave granularity"},
        {"mmu.design", design_doc.c_str()},
        {"mmu.numPtws", "parallel page-table walkers"},
        {"mmu.prmbSlots", "PRMB merge slots per PTW (0 = no PTS)"},
        {"mmu.pathCache", "none|tpreg|tpc|uptc walker path cache"},
        {"mmu.sharedCacheEntries", "Tpc/Uptc entry count"},
        {"mmu.sharedCacheReplacement", "lru|fifo for Tpc/Uptc"},
        {"mmu.walkLatencyPerLevel", "cycles per radix level walked"},
        {"mmu.prefetchDepth", "sequential translation prefetch depth"},
        {"mmu.tlb.entries", "IOTLB entries"},
        {"mmu.tlb.ways", "IOTLB associativity (0 = full)"},
        {"mmu.tlb.hitLatency", "IOTLB hit latency (cycles)"},
        {"mmu.range.entries", "RangeMMU: range-TLB entries"},
        {"mmu.range.maxPages", "RangeMMU: eager-construction cap"},
        {"mmu.range.walkers", "RangeMMU: concurrent miss walkers"},
        {"mmu.range.hitLatency", "RangeMMU: range-TLB hit latency"},
        {"mmu.range.walkLatencyPerLevel", "RangeMMU: radix level cost"},
        {"mmu.pom.l1Entries", "PomTlb: on-chip L1 TLB entries"},
        {"mmu.pom.l1HitLatency", "PomTlb: L1 hit latency (cycles)"},
        {"mmu.pom.entries", "PomTlb: in-memory TLB entries"},
        {"mmu.pom.ways", "PomTlb: in-memory associativity"},
        {"mmu.pom.walkers", "PomTlb: concurrent miss registers"},
        {"mmu.pom.walkLatencyPerLevel", "PomTlb: radix level cost"},
        {"mmu.pom.memLatency", "PomTlb: POM DRAM access latency"},
        {"mmu.nmt.segmentShift", "NMT: log2 pages per segment"},
        {"mmu.nmt.cacheEntries", "NMT: segment-cache entries"},
        {"mmu.nmt.units", "NMT: concurrent fetch units"},
        {"mmu.nmt.hitLatency", "NMT: segment-cache hit latency"},
        {"mmu.nmt.fetchLatency", "NMT: flat index fetch latency"},
        {"paging.enabled", "0|1: own a PagingEngine (page lifecycle)"},
        {"paging.policy", "clock|lru victim selection"},
        {"paging.residentLimitBytes", "residency cap in bytes (0=node)"},
        {"paging.residentLimitPages", "residency cap in pages "
                                      "(uses current pageShift)"},
        {"paging.faultLatency", "OS fault-handling overhead (cycles)"},
        {"paging.homeNode", "NPU slot whose node the engine manages"},
        {"paging.writebackOnEvict", "0|1: charge write-back migration"},
        {"serve.enabled", "0|1: open-loop serving layer (ServingEngine)"},
        {"serve.process", "fixed|poisson|bursty|diurnal arrivals"},
        {"serve.ratePerMcycle", "mean arrival rate, requests/Mcycle"},
        {"serve.burstRatio", "bursty: burst-state rate multiplier"},
        {"serve.burstDwell", "bursty: mean burst dwell (cycles)"},
        {"serve.calmDwell", "bursty: mean calm dwell (cycles)"},
        {"serve.diurnalPeriod", "diurnal: rate-cycle period (cycles)"},
        {"serve.diurnalAmplitude", "diurnal: swing in [0,1)"},
        {"serve.workload", "request-model spec (dense|embedding|"
                           "synthetic[:k=v,...])"},
        {"serve.slots", "serving NPU slots (0 = all)"},
        {"serve.tenants", "concurrent tenants at steady state"},
        {"serve.lifetimeRequests", "requests per tenant before "
                                   "retirement (0 = no churn)"},
        {"serve.admitGap", "min gap between admissions (cycles)"},
        {"serve.maxAdmissions", "total admission cap (0 = unlimited)"},
        {"serve.demandPaged", "0|1: fault tenant pages through the "
                              "PagingEngine (needs paging.enabled)"},
        {"serve.sloLatency", "SLO latency target (cycles)"},
        {"serve.window", "windowed-metric sampling period (cycles)"},
        {"serve.queueLimit", "per-slot pending cap; 0 = unbounded"},
        {"sim.profile", "1 = host-side cycle attribution (prof.* / "
                        "fastpath.* stats groups); observational only"},
        {"trace.enabled", "0|1: request-lifecycle span tracing "
                          "(off = zero overhead, goldens untouched)"},
        {"trace.tailThreshold", "flush only requests with e2e latency "
                                ">= this many ticks (0 = keep all)"},
        {"trace.autoP99", "0|1: also flush requests slower than the "
                          "live p99"},
        {"trace.ring", "span-ring capacity (drop-oldest)"},
        {"trace.marks", "tail-mark ring capacity"},
    };
    return table;
}

std::string
binderHelp()
{
    // Keys sharing a dotted prefix render under one group header; the
    // table is already laid out group-by-group, so a plain scan works.
    std::string out;
    std::string group;
    bool first = true;
    for (const BinderKeyDoc &doc : binderKeyTable()) {
        const std::string key = doc.key;
        const std::size_t dot = key.find('.');
        const std::string prefix =
            dot == std::string::npos ? "system" : key.substr(0, dot);
        if (prefix != group) {
            if (!first)
                out += "\n";
            out += prefix;
            if (dot != std::string::npos)
                out += ".*";
            out += ":\n";
            group = prefix;
            first = false;
        }
        out += "  ";
        out += key;
        const std::size_t pad = 28;
        out.append(pad > key.size() ? pad - key.size() : 1, ' ');
        out += doc.doc;
        out += "\n";
    }
    return out;
}

} // namespace sweep
} // namespace neummu
