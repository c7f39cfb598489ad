/**
 * @file
 * SweepEngine subsystem tests: the ConfigBinder key surface, the
 * JSONL manifest / grid-spec loaders, the engine's execution
 * contract (declarative jobs match direct System construction,
 * failure isolation, deterministic result ordering, rep
 * cross-checking), the ResultSink's merged JSON / CSV, the json_lite
 * reader, and the concurrency-safety regression: two Systems running
 * on two threads must dump byte-identical stats to their serial
 * runs, which is what makes parallel sweeps sound.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "sweep/json_lite.hh"
#include "sweep/manifest.hh"
#include "sweep/result_sink.hh"
#include "sweep/sweep_engine.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** Serial reference: build + run one System, return its dump. */
std::string
runDirect(const SystemConfig &cfg,
          const std::vector<std::string> &workload_specs)
{
    SystemConfig sized = cfg;
    sized.numNpus = std::max<unsigned>(
        sized.numNpus, unsigned(workload_specs.size()));
    System system(sized);
    Scheduler scheduler(system);
    for (const std::string &spec : workload_specs)
        scheduler.add(makeWorkloadFromSpecChecked(spec));
    EXPECT_TRUE(scheduler.run().allDone);
    std::ostringstream os;
    system.dumpStatsJson(os);
    return os.str();
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

} // namespace

// ---------------------------------------------------------------------
// ConfigBinder.
// ---------------------------------------------------------------------

TEST(ConfigBinder, BindsSystemLevelKeys)
{
    SystemConfig cfg;
    sweep::applyOverrides(cfg, {{"name", "swept"},
                                {"seed", "42"},
                                {"numNpus", "4"},
                                {"mmu.design", "neummu"},
                                {"routerPolicy", "partitioned"},
                                {"sharedMemory", "1"},
                                {"pageShift", "21"},
                                {"npuHbmBytes", "2G"}});
    EXPECT_EQ(cfg.name, "swept");
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_EQ(cfg.numNpus, 4u);
    EXPECT_EQ(cfg.mmuDesign, "neummu");
    EXPECT_EQ(cfg.routerPolicy, RouterPolicy::Partitioned);
    EXPECT_TRUE(cfg.sharedMemory);
    EXPECT_EQ(cfg.pageShift, 21u);
    EXPECT_EQ(cfg.npuHbmBytes, 2ull << 30);
}

TEST(ConfigBinder, MmuKeysMaterializeTheResolvedConfig)
{
    // Editing one MMU knob of a named design point starts from that
    // point's canned config; the design key stays as it was.
    SystemConfig cfg;
    sweep::applyOverrides(
        cfg, {{"mmu.design", "neummu"}, {"mmu.numPtws", "32"}});
    EXPECT_EQ(cfg.mmuDesign, "neummu");
    ASSERT_TRUE(cfg.mmu.has_value());
    const MmuConfig reference = neuMmuConfig();
    EXPECT_EQ(cfg.mmu->numPtws, 32u);
    EXPECT_EQ(cfg.mmu->prmbSlots, reference.prmbSlots);
    EXPECT_EQ(cfg.mmu->pathCache, reference.pathCache);
    EXPECT_EQ(cfg.mmu->tlb.entries, reference.tlb.entries);

    // A second mmu.* key must edit the same materialized config, not
    // re-resolve it.
    sweep::applyOverride(cfg, "mmu.prmbSlots", "4");
    EXPECT_EQ(cfg.mmu->numPtws, 32u);
    EXPECT_EQ(cfg.mmu->prmbSlots, 4u);
}

TEST(ConfigBinder, PageShiftKeepsAnEditedMmuInStep)
{
    // There is no mmu.pageShift key, so pageShift= must move an
    // edited walker config along with it: both orders bind the same
    // config, and it builds (a mismatch would abort the run).
    const std::vector<sweep::OverrideList> orders = {
        {{"mmu.design", "neummu"}, {"mmu.numPtws", "32"},
         {"pageShift", "21"}},
        {{"pageShift", "21"}, {"mmu.design", "neummu"},
         {"mmu.numPtws", "32"}},
    };
    std::vector<MmuConfig> resolved;
    for (const sweep::OverrideList &order : orders) {
        SystemConfig cfg;
        sweep::applyOverrides(cfg, order);
        resolved.push_back(cfg.resolvedMmuConfig());
        EXPECT_EQ(resolved.back().pageShift, 21u);
        EXPECT_EQ(resolved.back().numPtws, 32u);
        System sys(cfg);
        EXPECT_NE(sys.mmu().asMmuCore(), nullptr);
    }
    const auto fields = [](const MmuConfig &c) {
        return std::make_tuple(
            c.tlb.entries, c.tlb.ways, c.tlb.hitLatency, c.numPtws,
            c.prmbSlots, c.pathCache, c.sharedCacheEntries,
            c.sharedCacheReplacement, c.walkLatencyPerLevel,
            c.pageShift, c.oracle, c.prefetchDepth);
    };
    EXPECT_EQ(fields(resolved[0]), fields(resolved[1]));
}

TEST(ConfigBinder, RejectsRemovedDesignNames)
{
    // The design key is the only identity: the old mmuKind= key and
    // the custom/alias values are gone, and the error lists the keys.
    SystemConfig cfg;
    EXPECT_THROW(sweep::applyOverride(cfg, "mmuKind", "neummu"),
                 sweep::BindError);
    for (const char *name : {"custom", "baseline", "pom", "rangemmu"}) {
        try {
            sweep::applyOverride(cfg, "mmu.design", name);
            ADD_FAILURE() << "mmu.design=" << name << " still binds";
        } catch (const sweep::BindError &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "oracle|iommu|neummu|range|pomtlb|nmt"),
                      std::string::npos)
                << err.what();
        }
    }
    EXPECT_EQ(cfg.mmuDesign, "iommu");
}

TEST(ConfigBinder, ResidentLimitPagesUsesCurrentPageShift)
{
    SystemConfig cfg;
    sweep::applyOverride(cfg, "paging.residentLimitPages", "48");
    EXPECT_EQ(cfg.paging.residentLimitBytes,
              48u * pageSize(smallPageShift));

    SystemConfig large;
    sweep::applyOverrides(
        large, {{"pageShift", "21"},
                {"paging.residentLimitPages", "3"}});
    EXPECT_EQ(large.paging.residentLimitBytes, 3u * pageSize(21));
}

TEST(ConfigBinder, PresetReplacesMachineKeepingIdentity)
{
    SystemConfig cfg;
    sweep::applyOverrides(cfg, {{"name", "keepme"},
                                {"seed", "9"},
                                {"numNpus", "4"},
                                {"vaScatterShift", "39"},
                                {"mmu.design", "neummu"},
                                {"sim.profile", "1"},
                                {"trace.enabled", "1"},
                                {"trace.tailThreshold", "5"},
                                {"preset", "dlrm_paging"}});
    // Identity and the observers survive...
    EXPECT_EQ(cfg.name, "keepme");
    EXPECT_EQ(cfg.seed, 9u);
    EXPECT_EQ(cfg.mmuDesign, "neummu");
    EXPECT_FALSE(cfg.mmu.has_value());
    EXPECT_EQ(cfg.pageShift, smallPageShift);
    EXPECT_TRUE(cfg.sim.profile);
    EXPECT_TRUE(cfg.trace.enabled);
    EXPECT_EQ(cfg.trace.tailThreshold, 5u);
    // ...the machine is the one-NPU gather device: default NPU and
    // memory, DMA burst covering a whole 256 B DLRM row (the 512 B
    // default burst already does).
    EXPECT_EQ(cfg.numNpus, 1u);
    EXPECT_EQ(cfg.vaScatterShift, 0u);
    EXPECT_EQ(cfg.dmaBurstBytes, 512u);
    EXPECT_EQ(cfg.npu.dmaBurstBytes, 512u);
    EXPECT_FALSE(cfg.paging.enabled);

    // pageShift set before the preset is kept.
    SystemConfig large;
    sweep::applyOverrides(large, {{"pageShift", "21"},
                                  {"preset", "ncf_paging"}});
    EXPECT_EQ(large.pageShift, largePageShift);
    EXPECT_EQ(large.mmuDesign, "iommu");
    EXPECT_EQ(large.dmaBurstBytes, 512u);
}

TEST(ConfigBinder, RejectsJunk)
{
    SystemConfig cfg;
    EXPECT_THROW(sweep::applyOverride(cfg, "noSuchKey", "1"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "seed", "banana"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "mmu.design", "magic"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "paging.enabled", "maybe"),
                 sweep::BindError);
    // preset after mmu.* edits would discard them.
    SystemConfig edited;
    sweep::applyOverride(edited, "mmu.numPtws", "4");
    EXPECT_THROW(sweep::applyOverride(edited, "preset", "dlrm_paging"),
                 sweep::BindError);
    EXPECT_THROW(sweep::parseOverride("novalue"), sweep::BindError);
    // Every documented key must stay bindable (doc/table drift).
    for (const sweep::BinderKeyDoc &doc : sweep::binderKeyTable())
        EXPECT_NE(sweep::binderHelp().find(doc.key),
                  std::string::npos);
}

TEST(ConfigBinder, RejectsValuesThatDoNotFitTheField)
{
    SystemConfig cfg;
    // 2^32 + 1 would truncate to 1 in a 32-bit field.
    EXPECT_THROW(sweep::applyOverride(cfg, "numNpus", "4294967297"),
                 sweep::BindError);
    EXPECT_EQ(cfg.numNpus, 1u);
    EXPECT_THROW(sweep::applyOverride(cfg, "mmu.numPtws", "4G"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "serve.tenants",
                                      "4294967296"),
                 sweep::BindError);
    sweep::applyOverride(cfg, "numNpus", "4294967295");
    EXPECT_EQ(cfg.numNpus, 4294967295u);

    // 64-bit fields: the literal itself, and the page-count product.
    EXPECT_THROW(sweep::applyOverride(cfg, "seed",
                                      "18446744073709551616"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "npuHbmBytes",
                                      "20000000000000G"),
                 sweep::BindError);
    EXPECT_THROW(sweep::applyOverride(cfg, "paging.residentLimitPages",
                                      "18446744073709551615"),
                 sweep::BindError);
}

TEST(ConfigBinder, RejectsRemovedExecutionKeys)
{
    // perfbench probes sim.shards to decide whether to run its
    // sharded pass, so none of these keys may bind. sim.profile is
    // the one kernel key, and the group error names it.
    SystemConfig cfg;
    for (const char *key : {"sim.shards", "sim.threads", "sim.hopTicks",
                            "sim.hubNpus", "sim.portCredits"}) {
        try {
            sweep::applyOverride(cfg, key, "1");
            ADD_FAILURE() << key << " still binds";
        } catch (const sweep::BindError &err) {
            EXPECT_NE(std::string(err.what()).find("valid: sim.profile)"),
                      std::string::npos)
                << err.what();
        }
    }
    sweep::applyOverride(cfg, "sim.profile", "1");
    EXPECT_TRUE(cfg.sim.profile);
}

// ---------------------------------------------------------------------
// json_lite.
// ---------------------------------------------------------------------

TEST(JsonLite, ParsesValuesPreservingOrderAndRawNumbers)
{
    const sweep::JsonValue v = sweep::parseJson(
        "{\"b\": 1e3, \"a\": [true, null, \"x\\n\"], \"c\": -0.50}");
    ASSERT_TRUE(v.isObject());
    ASSERT_EQ(v.members.size(), 3u);
    // Insertion order, not sorted.
    EXPECT_EQ(v.members[0].first, "b");
    EXPECT_EQ(v.members[1].first, "a");
    // Numbers keep their raw spelling.
    EXPECT_EQ(v.members[0].second.text, "1e3");
    EXPECT_EQ(v.find("c")->text, "-0.50");
    EXPECT_DOUBLE_EQ(v.find("c")->number(), -0.5);
    const sweep::JsonValue &arr = *v.find("a");
    ASSERT_TRUE(arr.isArray());
    ASSERT_EQ(arr.items.size(), 3u);
    EXPECT_TRUE(arr.items[0].boolean);
    EXPECT_TRUE(arr.items[1].isNull());
    EXPECT_EQ(arr.items[2].text, "x\n");
}

TEST(JsonLite, RejectsJunk)
{
    EXPECT_THROW(sweep::parseJson("{\"a\": }"), sweep::JsonError);
    EXPECT_THROW(sweep::parseJson("{} trailing"), sweep::JsonError);
    EXPECT_THROW(sweep::parseJson("{\"a\": 1"), sweep::JsonError);
    EXPECT_THROW(sweep::parseJson(""), sweep::JsonError);
    // An exponent marker needs digits; "2e" must not silently parse
    // as 2 (a typo'd manifest reps/limit would run wrong).
    EXPECT_THROW(sweep::parseJson("{\"reps\": 2e}"),
                 sweep::JsonError);
    EXPECT_THROW(sweep::parseJson("{\"limit\": 3e+}"),
                 sweep::JsonError);
}

// ---------------------------------------------------------------------
// Manifest + grid expansion.
// ---------------------------------------------------------------------

TEST(Manifest, ParsesJsonlWithCommentsAndDefaults)
{
    std::istringstream in(
        "# comment line\n"
        "\n"
        "{\"id\": \"first\", \"set\": {\"seed\": 3, "
        "\"mmu.design\": \"neummu\"}, "
        "\"workloads\": [\"synthetic:pattern=stride\"], \"reps\": 2}\n"
        "{\"workloads\": \"synthetic:pattern=uniform\", "
        "\"limit\": 500}\n");
    const std::vector<sweep::JobSpec> jobs =
        sweep::parseManifest(in, "test", SystemConfig{});
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "first");
    ASSERT_EQ(jobs[0].overrides.size(), 2u);
    // "set" preserves member order (it is order-sensitive).
    EXPECT_EQ(jobs[0].overrides[0].first, "seed");
    EXPECT_EQ(jobs[0].overrides[0].second, "3");
    EXPECT_EQ(jobs[0].reps, 2u);
    EXPECT_EQ(jobs[1].id, "job1");
    ASSERT_EQ(jobs[1].workloads.size(), 1u);
    EXPECT_EQ(jobs[1].limit, Tick(500));
}

TEST(Manifest, RejectsJunk)
{
    const SystemConfig base;
    auto parse = [&base](const std::string &text) {
        std::istringstream in(text);
        return sweep::parseManifest(in, "test", base);
    };
    EXPECT_THROW(parse("{\"workloads\": [\"x\"], \"bogus\": 1}"),
                 sweep::ManifestError);
    EXPECT_THROW(parse("not json\n"), sweep::ManifestError);
    EXPECT_THROW(parse("\n# only comments\n"), sweep::ManifestError);
    EXPECT_THROW(
        parse("{\"id\": \"dup\", \"workloads\": [\"x\"]}\n"
              "{\"id\": \"dup\", \"workloads\": [\"x\"]}\n"),
        sweep::ManifestError);
    EXPECT_THROW(parse("{\"workloads\": [\"x\"], \"reps\": 1e30}"),
                 sweep::ManifestError);
    EXPECT_THROW(parse("{\"workloads\": [\"x\"], \"reps\": 4294967297}"),
                 sweep::ManifestError);
    // A job without traffic parses; it fails alone when it runs,
    // against its final config (see ServingSweep).
    const std::vector<sweep::JobSpec> empty =
        parse("{\"workloads\": []}");
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_THROW(sweep::SweepEngine::runDeclarative(empty[0]),
                 sweep::BindError);
}

TEST(Manifest, GridSpecExpandsCrossProduct)
{
    const std::vector<sweep::JobSpec> jobs = sweep::expandGrid(
        "mmu.design=neummu;mmu.numPtws=8|16;seed=1|2;"
        "workloads=synthetic:pattern=stride+synthetic:pattern=uniform",
        SystemConfig{});
    ASSERT_EQ(jobs.size(), 4u);
    // Rightmost clause varies fastest; ids name the varying keys.
    EXPECT_EQ(jobs[0].id, "mmu.numPtws=8,seed=1");
    EXPECT_EQ(jobs[1].id, "mmu.numPtws=8,seed=2");
    EXPECT_EQ(jobs[2].id, "mmu.numPtws=16,seed=1");
    EXPECT_EQ(jobs[3].id, "mmu.numPtws=16,seed=2");
    // '+' splits tenants within the workloads value.
    ASSERT_EQ(jobs[0].workloads.size(), 2u);
    EXPECT_EQ(jobs[0].workloads[1], "synthetic:pattern=uniform");
    // Non-varying clauses still bind.
    EXPECT_EQ(jobs[0].overrides.front().first, "mmu.design");

    // No workloads= clause: the job expands and fails when it runs.
    const std::vector<sweep::JobSpec> bare =
        sweep::expandGrid("mmu.design=neummu", SystemConfig{});
    ASSERT_EQ(bare.size(), 1u);
    EXPECT_THROW(sweep::SweepEngine::runDeclarative(bare[0]),
                 sweep::BindError);
    EXPECT_THROW(sweep::expandGrid("", SystemConfig{}),
                 sweep::ManifestError);
    // A repeated value would produce two jobs under one id; ids key
    // the merged output, so that is an error like in a manifest.
    EXPECT_THROW(
        sweep::expandGrid("seed=1|1;workloads=synthetic:pattern="
                          "stride",
                          SystemConfig{}),
        sweep::ManifestError);
    // A trailing-'|' typo is a usage error up front, not a job that
    // fails (or half-vanishes from a plot) at run time.
    EXPECT_THROW(
        sweep::expandGrid("seed=1|;workloads=synthetic:pattern="
                          "stride",
                          SystemConfig{}),
        sweep::ManifestError);
}

TEST(Manifest, GridJobFieldsParseStrictly)
{
    const std::vector<sweep::JobSpec> jobs = sweep::expandGrid(
        "reps=2;limit=1000|2000;workloads=synthetic:pattern=stride",
        SystemConfig{});
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "limit=1000");
    EXPECT_EQ(jobs[0].reps, 2u);
    EXPECT_EQ(jobs[0].limit, Tick(1000));
    EXPECT_EQ(jobs[1].limit, Tick(2000));
    // Job fields never reach the binder.
    EXPECT_TRUE(jobs[0].overrides.empty());

    // A bare strtoul wrapped "-1" to 2^32-1 reps and read "2x" as 2.
    for (const char *bad :
         {"reps=-1", "reps=2x", "reps=0", "reps=1.5", "limit=abc",
          "limit=-5", "limit=10cycles"})
        EXPECT_THROW(sweep::expandGrid(std::string(bad) +
                                           ";workloads=synthetic:"
                                           "pattern=stride",
                                       SystemConfig{}),
                     sweep::ManifestError)
            << bad;
}

// ---------------------------------------------------------------------
// SweepEngine execution contract.
// ---------------------------------------------------------------------

TEST(SweepEngine, DeclarativeJobMatchesDirectConstruction)
{
    sweep::JobSpec job;
    job.id = "declarative";
    job.overrides = {{"seed", "5"}, {"mmu.design", "neummu"}};
    job.workloads = {
        "synthetic:pattern=hotset,footprint=2M,accesses=512"};
    const sweep::JobOutcome out =
        sweep::SweepEngine::runDeclarative(job);
    EXPECT_TRUE(out.allDone);

    SystemConfig direct;
    direct.seed = 5;
    direct.mmuDesign = "neummu";
    EXPECT_EQ(out.statsJson, runDirect(direct, job.workloads));
}

TEST(SweepEngine, TwoTenantDeclarativeJobRaisesNpuCount)
{
    sweep::JobSpec job;
    job.id = "tenants";
    job.overrides = {{"seed", "5"}, {"mmu.design", "iommu"}};
    job.workloads = {
        "synthetic:pattern=stride,footprint=1M,accesses=256",
        "synthetic:pattern=uniform,footprint=1M,accesses=256"};
    const sweep::JobOutcome out =
        sweep::SweepEngine::runDeclarative(job);
    EXPECT_TRUE(out.allDone);

    SystemConfig direct;
    direct.seed = 5;
    direct.mmuDesign = "iommu";
    EXPECT_EQ(out.statsJson, runDirect(direct, job.workloads));
}

TEST(SweepEngine, IsolatesFailingJobsAndKeepsOrder)
{
    std::vector<sweep::JobSpec> jobs(4);
    jobs[0].id = "ok_a";
    jobs[0].overrides = {{"seed", "1"}};
    jobs[0].workloads = {"synthetic:pattern=stride,accesses=128"};
    jobs[1].id = "bad_binder_key";
    jobs[1].overrides = {{"mmu.noSuchKnob", "1"}};
    jobs[1].workloads = {"synthetic:pattern=stride,accesses=128"};
    jobs[2].id = "bad_workload_kind";
    jobs[2].workloads = {"warp:speed=9"};
    jobs[3].id = "ok_b";
    jobs[3].overrides = {{"seed", "2"}};
    jobs[3].workloads = {"synthetic:pattern=uniform,accesses=128"};

    sweep::SweepOptions opts;
    opts.threads = 2;
    unsigned progress_calls = 0;
    opts.progress = [&progress_calls](unsigned, unsigned,
                                      const sweep::JobResult &) {
        progress_calls++;
    };
    const sweep::SweepResults results =
        sweep::SweepEngine(opts).run(jobs);

    ASSERT_EQ(results.jobs.size(), 4u);
    EXPECT_EQ(results.summary.failures, 2u);
    EXPECT_EQ(progress_calls, 4u);
    // Results land at their manifest index, whatever the thread
    // interleaving was.
    EXPECT_EQ(results.jobs[0].id, "ok_a");
    EXPECT_TRUE(results.jobs[0].ok);
    EXPECT_FALSE(results.jobs[1].ok);
    EXPECT_NE(results.jobs[1].error.find("unknown sweep config key"),
              std::string::npos);
    EXPECT_FALSE(results.jobs[2].ok);
    EXPECT_NE(results.jobs[2].error.find("unknown workload kind"),
              std::string::npos);
    EXPECT_TRUE(results.jobs[3].ok);
    EXPECT_GT(results.jobs[3].outcome.totalCycles, 0u);
}

TEST(SweepEngine, RepsCrossCheckDeterminism)
{
    std::vector<sweep::JobSpec> jobs(1);
    jobs[0].id = "reps";
    jobs[0].overrides = {{"seed", "7"}, {"mmu.design", "neummu"}};
    jobs[0].workloads = {"synthetic:pattern=uniform,accesses=256"};
    jobs[0].reps = 3;
    const sweep::SweepResults results =
        sweep::SweepEngine().run(jobs);
    ASSERT_TRUE(results.jobs[0].ok);
    EXPECT_EQ(results.jobs[0].reps, 3u);
    EXPECT_TRUE(results.jobs[0].deterministic);
}

TEST(SweepEngine, ParallelRunMatchesSerialRun)
{
    // The headline guarantee: the same manifest, serial and 4-wide,
    // produces byte-identical per-job stats.
    std::vector<sweep::JobSpec> jobs;
    for (unsigned seed = 1; seed <= 6; seed++) {
        sweep::JobSpec job;
        job.id = "seed" + std::to_string(seed);
        job.overrides = {{"seed", std::to_string(seed)},
                         {"mmu.design", seed % 2 ? "neummu" : "iommu"}};
        job.workloads = {
            "synthetic:pattern=hotset,footprint=2M,accesses=512"};
        jobs.push_back(std::move(job));
    }
    sweep::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const sweep::SweepResults serial =
        sweep::SweepEngine(serial_opts).run(jobs);
    sweep::SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    const sweep::SweepResults parallel =
        sweep::SweepEngine(parallel_opts).run(jobs);
    EXPECT_EQ(sweep::compareRuns(serial, parallel), "");
    EXPECT_EQ(parallel.summary.threads, 4u);
}

TEST(SweepEngine, ProfiledRunsCompareOnSimulatedStats)
{
    // sim.profile=1 adds host nanoseconds (<sys>.prof) to every dump;
    // they differ run to run, so they must neither flag a rep as
    // nondeterministic nor break the serial-vs-parallel comparison.
    std::vector<sweep::JobSpec> jobs = sweep::expandGrid(
        "sim.profile=1;mmu.design=neummu|iommu;"
        "workloads=dense:model=CNN1,batch=1,layers=2",
        SystemConfig{});
    for (sweep::JobSpec &job : jobs)
        job.reps = 2;
    sweep::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const sweep::SweepResults serial =
        sweep::SweepEngine(serial_opts).run(jobs);
    sweep::SweepOptions parallel_opts;
    parallel_opts.threads = 2;
    const sweep::SweepResults parallel =
        sweep::SweepEngine(parallel_opts).run(jobs);
    for (const sweep::JobResult &job : parallel.jobs) {
        ASSERT_TRUE(job.ok) << job.error;
        EXPECT_TRUE(job.deterministic) << job.id;
        EXPECT_NE(job.outcome.statsJson.find(".prof\""),
                  std::string::npos);
    }
    EXPECT_EQ(sweep::compareRuns(serial, parallel), "");
}

TEST(SweepEngine, SameStatsIgnoresOnlyTheNamedGroups)
{
    const std::string base = "{\n  \"sys.sim\": {\"simTicks\": 5},"
                             "\n  \"sys.prof\": {\"kernelNanos\": 1},"
                             "\n  \"sys.fastpath\": {\"trains\": 2}\n}";
    std::string host = base;
    host.replace(host.find("\"kernelNanos\": 1"), 16,
                 "\"kernelNanos\": 9");
    std::string fast = base;
    fast.replace(fast.find("\"trains\": 2"), 11, "\"trains\": 3");
    std::string sim = base;
    sim.replace(sim.find("\"simTicks\": 5"), 13, "\"simTicks\": 6");
    EXPECT_TRUE(sweep::sameStats(base, host));
    EXPECT_FALSE(sweep::sameStats(base, fast));
    EXPECT_TRUE(sweep::sameStats(base, fast, {".prof", ".fastpath"}));
    EXPECT_FALSE(sweep::sameStats(base, sim, {".prof", ".fastpath"}));
    EXPECT_FALSE(sweep::sameStats(base, ""));
}

// ---------------------------------------------------------------------
// Simulator scenarios (scripts/sim_scenarios.jsonl): each runs plain,
// profiled and traced. Observation must not change a simulated stat,
// no DMA burst tracker may rehash in steady state, every kernel and
// translation fast path must fire on some scenario, and the 64-NPU
// mix must complete.
// ---------------------------------------------------------------------

namespace {

/** The dump group whose name ends in @p suffix; nullptr if absent. */
const sweep::JsonValue *
findGroup(const sweep::JsonValue &dump, const std::string &suffix)
{
    for (const auto &[name, group] : dump.members)
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            return &group;
    return nullptr;
}

/** Stat @p stat of @p group, 0 when either is absent. */
double
statOf(const sweep::JsonValue *group, const std::string &stat)
{
    const sweep::JsonValue *v = group ? group->find(stat) : nullptr;
    return v ? v->number() : 0.0;
}

} // namespace

TEST(SimScenarios, ObservationIsInvisibleAndFastPathsFire)
{
    const std::vector<sweep::JobSpec> plain = sweep::loadManifest(
        std::string(NEUMMU_SCRIPTS_DIR) + "/sim_scenarios.jsonl",
        SystemConfig{});
    const std::size_t n = plain.size();
    std::vector<sweep::JobSpec> jobs = plain;
    for (const char *observer : {"sim.profile", "trace.enabled"})
        for (sweep::JobSpec job : plain) {
            job.id += std::string("+") + observer;
            job.overrides.push_back({observer, "1"});
            jobs.push_back(std::move(job));
        }
    sweep::SweepOptions opts;
    opts.threads = 2;
    const sweep::SweepResults results = sweep::SweepEngine(opts).run(jobs);
    for (const sweep::JobResult &job : results.jobs) {
        ASSERT_TRUE(job.ok) << job.id << ": " << job.error;
        EXPECT_TRUE(job.outcome.allDone) << job.id;
    }

    const std::vector<std::string> fastPaths = {
        "trainsStarted", "trainSubEventsInlined", "sameTickShortcuts",
        "xlateRegisterHits", "walkCacheHits"};
    std::set<std::string> fired;
    bool npu64 = false;
    for (std::size_t i = 0; i < n; i++) {
        SCOPED_TRACE(plain[i].id);
        const std::string &dump = results.jobs[i].outcome.statsJson;
        const std::string &profiled =
            results.jobs[n + i].outcome.statsJson;
        const std::string &traced =
            results.jobs[2 * n + i].outcome.statsJson;
        EXPECT_TRUE(sweep::sameStats(dump, profiled,
                                     {".prof", ".fastpath", ".trace"}))
            << "profiling changed a simulated stat";
        EXPECT_TRUE(sweep::sameStats(dump, traced,
                                     {".prof", ".fastpath", ".trace"}))
            << "tracing changed a simulated stat";

        const sweep::JsonValue profiledDump = sweep::parseJson(profiled);
        const sweep::JsonValue *fast =
            findGroup(profiledDump, ".fastpath");
        ASSERT_NE(fast, nullptr);
        EXPECT_EQ(statOf(fast, "burstTrackerRehashes"), 0.0);
        for (const std::string &counter : fastPaths)
            if (statOf(fast, counter) > 0.0)
                fired.insert(counter);

        const sweep::JsonValue tracedDump = sweep::parseJson(traced);
        EXPECT_GT(statOf(findGroup(tracedDump, ".trace"),
                         "spansRecorded"),
                  0.0);
        npu64 |= plain[i].id == "npu64_mix";
    }
    for (const std::string &counter : fastPaths)
        EXPECT_EQ(fired.count(counter), 1u)
            << counter << " is zero on every scenario";
    EXPECT_TRUE(npu64) << "sim_scenarios.jsonl lost npu64_mix";
}

// ---------------------------------------------------------------------
// Concurrency-safety regression (independent of the engine): two
// different Systems on two raw threads must reproduce their serial
// dumps byte-for-byte. Hidden globals/statics in any hot path would
// race here and show up as a diff (or as tsan/asan noise in CI).
// ---------------------------------------------------------------------

TEST(SweepConcurrency, ConcurrentSystemsMatchSerialRuns)
{
    SystemConfig cfg_a;
    cfg_a.seed = 11;
    cfg_a.mmuDesign = "neummu";
    const std::vector<std::string> wl_a = {
        "synthetic:pattern=hotset,footprint=4M,accesses=1024"};

    SystemConfig cfg_b;
    cfg_b.seed = 23;
    cfg_b.mmuDesign = "iommu";
    cfg_b.numNpus = 2;
    const std::vector<std::string> wl_b = {
        "synthetic:pattern=uniform,footprint=2M,accesses=512",
        "synthetic:pattern=stride,footprint=2M,accesses=512"};

    const std::string serial_a = runDirect(cfg_a, wl_a);
    const std::string serial_b = runDirect(cfg_b, wl_b);

    std::string threaded_a, threaded_b;
    std::thread ta(
        [&]() { threaded_a = runDirect(cfg_a, wl_a); });
    std::thread tb(
        [&]() { threaded_b = runDirect(cfg_b, wl_b); });
    ta.join();
    tb.join();

    EXPECT_EQ(threaded_a, serial_a);
    EXPECT_EQ(threaded_b, serial_b);
}

// ---------------------------------------------------------------------
// ResultSink.
// ---------------------------------------------------------------------

namespace {

/** A tiny mixed sweep (one success, one failure) for sink tests. */
sweep::SweepResults
sinkFixture()
{
    std::vector<sweep::JobSpec> jobs(2);
    jobs[0].id = "good";
    jobs[0].overrides = {{"seed", "3"}};
    jobs[0].workloads = {"synthetic:pattern=stride,accesses=128"};
    jobs[1].id = "bad";
    jobs[1].overrides = {{"noSuchKey", "1"}};
    jobs[1].workloads = {"synthetic:pattern=stride,accesses=128"};
    return sweep::SweepEngine().run(jobs);
}

} // namespace

TEST(ResultSink, MergedJsonParsesAndCarriesFailures)
{
    const sweep::SweepResults results = sinkFixture();
    std::ostringstream os;
    sweep::ResultSink::writeJson(os, results);
    const sweep::JsonValue doc = sweep::parseJson(os.str());
    EXPECT_EQ(doc.find("schema")->text, "neummu-sweep-1");
    const sweep::JsonValue &sum = *doc.find("sweep");
    EXPECT_EQ(sum.find("jobs")->text, "2");
    EXPECT_EQ(sum.find("failures")->text, "1");
    EXPECT_NE(sum.find("wallSeconds"), nullptr);
    const sweep::JsonValue &jobs = *doc.find("jobs");
    ASSERT_EQ(jobs.items.size(), 2u);
    EXPECT_TRUE(jobs.items[0].find("ok")->boolean);
    // The success embeds its full registry dump.
    EXPECT_NE(jobs.items[0].find("stats"), nullptr);
    EXPECT_NE(jobs.items[0].find("stats")->find("sys.mmu"), nullptr);
    // The failure reports its error and embeds no stats.
    EXPECT_FALSE(jobs.items[1].find("ok")->boolean);
    EXPECT_NE(jobs.items[1].find("error")->text.find("noSuchKey"),
              std::string::npos);
    EXPECT_EQ(jobs.items[1].find("stats"), nullptr);
}

TEST(ResultSink, TimingOffMakesOutputByteStable)
{
    // Two runs of the same manifest differ only in wall clock and
    // (here, simulated) worker count; with timing excluded the
    // merged documents must be byte-identical -- the property the
    // check.sh -j1-vs-jN cmp gate relies on.
    sweep::SweepResults first = sinkFixture();
    sweep::SweepResults second = sinkFixture();
    first.summary.threads = 1;
    second.summary.threads = 8;
    sweep::SinkOptions no_timing;
    no_timing.includeTiming = false;
    std::ostringstream os_a, os_b;
    sweep::ResultSink::writeJson(os_a, first, no_timing);
    sweep::ResultSink::writeJson(os_b, second, no_timing);
    EXPECT_EQ(os_a.str(), os_b.str());
    EXPECT_EQ(os_a.str().find("wallSeconds"), std::string::npos);
    EXPECT_EQ(os_a.str().find("threads"), std::string::npos);
}

TEST(ResultSink, CsvFlattensEveryScalar)
{
    const sweep::SweepResults results = sinkFixture();
    std::ostringstream os;
    sweep::ResultSink::writeCsv(os, results);
    const std::string csv = os.str();
    EXPECT_EQ(csv.rfind("job,ok,group,stat,value\n", 0), 0u);
    EXPECT_NE(csv.find("good,ok,,totalCycles,"), std::string::npos);
    EXPECT_NE(csv.find("good,ok,sys.mmu,requests,"),
              std::string::npos);
    EXPECT_NE(csv.find("bad,error,,,"), std::string::npos);
}

TEST(ResultSink, CsvQuotesJobIdsWithCommas)
{
    // Grid-generated ids join clauses with ',' -- the CSV must quote
    // them so the 5-column layout survives any reader.
    std::vector<sweep::JobSpec> jobs = sweep::expandGrid(
        "mmu.numPtws=8|16;seed=1|2;"
        "workloads=synthetic:pattern=stride,accesses=128",
        SystemConfig{});
    const sweep::SweepResults results =
        sweep::SweepEngine().run(jobs);
    ASSERT_EQ(results.summary.failures, 0u);
    std::ostringstream os;
    sweep::ResultSink::writeCsv(os, results);
    EXPECT_NE(os.str().find("\"mmu.numPtws=8,seed=1\",ok,,"
                            "totalCycles,"),
              std::string::npos)
        << os.str().substr(0, 200);
}

// ---------------------------------------------------------------------
// End-to-end: manifest file -> engine -> sink.
// ---------------------------------------------------------------------

TEST(SweepEndToEnd, ManifestFileRunsAndMerges)
{
    const std::string path = tempPath("sweep_e2e_manifest.jsonl");
    {
        std::ofstream out(path);
        out << "{\"id\": \"a\", \"set\": {\"seed\": 1}, "
               "\"workloads\": "
               "[\"synthetic:pattern=stride,accesses=128\"]}\n"
            << "{\"id\": \"b\", \"set\": {\"seed\": 2, "
               "\"mmu.design\": \"neummu\"}, \"workloads\": "
               "[\"synthetic:pattern=uniform,accesses=128\"]}\n";
    }
    const std::vector<sweep::JobSpec> jobs =
        sweep::loadManifest(path, SystemConfig{});
    ASSERT_EQ(jobs.size(), 2u);
    sweep::SweepOptions opts;
    opts.threads = 2;
    const sweep::SweepResults results =
        sweep::SweepEngine(opts).run(jobs);
    EXPECT_EQ(results.summary.failures, 0u);

    const std::string json_path = tempPath("sweep_e2e_out.json");
    {
        std::ofstream out(json_path);
        sweep::ResultSink::writeJson(out, results);
        EXPECT_TRUE(out.good());
    }
    std::ifstream in(json_path);
    std::ostringstream merged;
    merged << in.rdbuf();
    const sweep::JsonValue doc = sweep::parseJson(merged.str());
    EXPECT_EQ(doc.find("jobs")->items.size(), 2u);

    EXPECT_THROW(sweep::loadManifest(tempPath("missing.jsonl"),
                                     SystemConfig{}),
                 sweep::ManifestError);
}
