/**
 * @file
 * Golden-stats regression harness: runs a fixed matrix of System
 * configurations (Oracle / baseline IOMMU / NeuMMU crossed with a
 * dense CNN layer stream, a demand-paged embedding gather, a
 * synthetic hot-set stream, and a two-tenant co-run) and compares the
 * full StatsRegistry JSON dump byte-for-byte against checked-in
 * golden files under tests/golden/.
 *
 * This is what certifies that simulator-kernel optimizations are
 * cycle-exact: every counter of every component (simTicks,
 * eventsExecuted, peakQueueDepth, TLB/walker/PTS activity, DMA stall
 * cycles, per-workload finish ticks, ...) must reproduce bit-identical
 * output. The goldens were generated by the pre-calendar-queue
 * reference kernel.
 *
 * To regenerate after an intentional model change:
 *
 *   ./build/test_golden_stats --update-golden
 *
 * (this test links its own main() so the flag can be stripped before
 * gtest sees it).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/manifest.hh"
#include "sweep/sweep_engine.hh"
#include "system/embedding_system.hh"
#include "system/scheduler.hh"
#include "system/system.hh"
#include "workloads/dense_dnn_workload.hh"
#include "workloads/embedding_workload.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

#ifndef NEUMMU_GOLDEN_DIR
#error "NEUMMU_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef NEUMMU_SCRIPTS_DIR
#error "NEUMMU_SCRIPTS_DIR must point at scripts/"
#endif

namespace {

bool g_updateGolden = false;

/** One cell of the golden matrix. */
struct GoldenCase
{
    const char *scenario;
    /** Translation design key. */
    const char *design;
};

std::string
caseName(const GoldenCase &c)
{
    return std::string(c.scenario) + "_" + translationDesign(c.design).title;
}

std::string
goldenPath(const GoldenCase &c)
{
    return std::string(NEUMMU_GOLDEN_DIR) + "/" + caseName(c) +
           ".json";
}

/**
 * The shared machine description. Everything the scenarios run on is
 * pinned here (seed included), so the dump is a pure function of the
 * (scenario, MMU design) cell.
 */
SystemConfig
goldenSystemConfig(const std::string &design, unsigned num_npus = 1)
{
    SystemConfig cfg;
    cfg.name = "golden";
    cfg.seed = 7;
    cfg.mmuDesign = design;
    cfg.numNpus = num_npus;
    return cfg;
}

/** Run one matrix cell and return the full StatsRegistry JSON. */
std::string
runScenario(const GoldenCase &c)
{
    std::unique_ptr<System> system;
    std::unique_ptr<Scheduler> scheduler;

    if (std::strcmp(c.scenario, "dense_cnn1") == 0) {
        system =
            std::make_unique<System>(goldenSystemConfig(c.design));
        scheduler = std::make_unique<Scheduler>(*system);
        DenseDnnWorkloadConfig wl;
        wl.workload = WorkloadId::CNN1;
        wl.batch = 1;
        wl.layerOverride = makeWorkload(WorkloadId::CNN1, 1).layers;
        wl.layerOverride.resize(2);
        scheduler->add(
            std::make_unique<DenseDnnWorkload>(std::move(wl)), 0);
    } else if (std::strcmp(c.scenario, "embedding_gather") == 0) {
        const EmbeddingModelSpec spec = makeDlrm();
        const EmbeddingSystemConfig cluster;
        SystemConfig cfg =
            demandPagingSystemConfig(spec, cluster, c.design);
        // Pin the shared golden name/seed over the canned machine.
        cfg.name = "golden";
        cfg.seed = 7;
        system = std::make_unique<System>(cfg);
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(std::make_unique<EmbeddingWorkload>(
                           demandPagingWorkloadConfig(spec, 1,
                                                      cluster)),
                       0);
    } else if (std::strcmp(c.scenario, "oversub_gather") == 0) {
        // Page lifecycle on: the same gather with the resident cap
        // pinned at 48 pages (~50% of the batch-1 touched set), so
        // the run exercises steady-state evict + shootdown + refetch
        // through the PagingEngine. Pinning these dumps freezes the
        // whole lifecycle stack: eviction order, shootdown counts,
        // migration timing, and the paging.* group serialization.
        const EmbeddingModelSpec spec = makeDlrm();
        const EmbeddingSystemConfig cluster;
        SystemConfig cfg =
            demandPagingSystemConfig(spec, cluster, c.design);
        cfg.name = "golden";
        cfg.seed = 7;
        cfg.paging.enabled = true;
        cfg.paging.policy = EvictionPolicy::Clock;
        cfg.paging.residentLimitBytes = 48 * pageSize(cfg.pageShift);
        cfg.paging.faultLatency = cluster.faultHandlerLatency;
        system = std::make_unique<System>(cfg);
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(std::make_unique<EmbeddingWorkload>(
                           demandPagingWorkloadConfig(spec, 1,
                                                      cluster)),
                       0);
    } else if (std::strcmp(c.scenario, "synthetic_hotset") == 0) {
        system =
            std::make_unique<System>(goldenSystemConfig(c.design));
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(makeWorkloadFromSpec(
            "synthetic:pattern=hotset,footprint=8M,accesses=2048"));
    } else if (std::strcmp(c.scenario, "tenants2") == 0) {
        system = std::make_unique<System>(
            goldenSystemConfig(c.design, 2));
        scheduler = std::make_unique<Scheduler>(*system);
        scheduler->add(makeWorkloadFromSpec(
            "synthetic:pattern=uniform,footprint=8M,accesses=1024"));
        scheduler->add(makeWorkloadFromSpec(
            "synthetic:pattern=stride,footprint=8M,accesses=1024"));
    } else {
        ADD_FAILURE() << "unknown golden scenario " << c.scenario;
        return "";
    }

    const SchedulerResult result = scheduler->run();
    EXPECT_TRUE(result.allDone)
        << caseName(c) << ": a workload never completed";

    std::ostringstream os;
    system->dumpStatsJson(os);
    return os.str();
}

class GoldenStats : public ::testing::TestWithParam<GoldenCase>
{
};

} // namespace

TEST_P(GoldenStats, MatchesGoldenDump)
{
    const GoldenCase &c = GetParam();
    const std::string actual = runScenario(c);
    ASSERT_FALSE(actual.empty());
    const std::string path = goldenPath(c);

    if (g_updateGolden) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << actual;
        return;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << "; run test_golden_stats --update-golden to create it";
    std::ostringstream golden;
    golden << in.rdbuf();

    EXPECT_EQ(actual, golden.str())
        << caseName(c)
        << ": StatsRegistry dump diverged from the golden reference."
        << " If the simulated model changed intentionally, rerun"
        << " with --update-golden and review the diff; a kernel-only"
        << " (performance) change must never trip this.";
}

/**
 * The same 16-config matrix, but expressed as the checked-in sweep
 * manifest (scripts/golden_matrix.jsonl) and executed through the
 * SweepEngine -- serially and 4-wide. Certifies three properties at
 * once:
 *
 * 1. the manifest -> ConfigBinder -> workload-factory path builds
 *    exactly the machines this file builds in C++ (every job's dump
 *    is byte-identical to its golden file),
 * 2. parallel execution is byte-identical to serial execution
 *    (workers share no mutable state), and
 * 3. jobs land at their manifest index in both runs.
 */
TEST(GoldenSweep, ParallelManifestMatchesSerialAndGoldens)
{
    if (g_updateGolden)
        GTEST_SKIP() << "golden files are being regenerated";

    const std::vector<sweep::JobSpec> jobs = sweep::loadManifest(
        std::string(NEUMMU_SCRIPTS_DIR) + "/golden_matrix.jsonl",
        SystemConfig{});
    ASSERT_EQ(jobs.size(), 16u)
        << "scripts/golden_matrix.jsonl must mirror the 16-config "
           "matrix above";

    sweep::SweepOptions serial_opts;
    serial_opts.threads = 1;
    const sweep::SweepResults serial =
        sweep::SweepEngine(serial_opts).run(jobs);
    sweep::SweepOptions parallel_opts;
    parallel_opts.threads = 4;
    const sweep::SweepResults parallel =
        sweep::SweepEngine(parallel_opts).run(jobs);

    EXPECT_EQ(sweep::compareRuns(serial, parallel), "")
        << "parallel sweep diverged from serial execution";

    for (std::size_t i = 0; i < jobs.size(); i++) {
        const sweep::JobResult &job = parallel.jobs[i];
        ASSERT_TRUE(job.ok) << job.id << ": " << job.error;
        EXPECT_EQ(job.id, jobs[i].id) << "result order broke";
        EXPECT_TRUE(job.outcome.allDone) << job.id;

        std::ifstream in(std::string(NEUMMU_GOLDEN_DIR) + "/" +
                             job.id + ".json",
                         std::ios::binary);
        ASSERT_TRUE(in.good())
            << "manifest job " << job.id
            << " has no matching golden file";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(job.outcome.statsJson, golden.str())
            << job.id
            << ": the manifest/ConfigBinder path no longer builds "
               "the machine this file builds directly";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenStats,
    ::testing::Values(
        GoldenCase{"dense_cnn1", "oracle"},
        GoldenCase{"dense_cnn1", "iommu"},
        GoldenCase{"dense_cnn1", "neummu"},
        GoldenCase{"embedding_gather", "oracle"},
        GoldenCase{"embedding_gather", "iommu"},
        GoldenCase{"embedding_gather", "neummu"},
        GoldenCase{"synthetic_hotset", "oracle"},
        GoldenCase{"synthetic_hotset", "iommu"},
        GoldenCase{"synthetic_hotset", "neummu"},
        GoldenCase{"synthetic_hotset", "range"},
        GoldenCase{"synthetic_hotset", "pomtlb"},
        GoldenCase{"tenants2", "oracle"},
        GoldenCase{"tenants2", "iommu"},
        GoldenCase{"tenants2", "neummu"},
        GoldenCase{"oversub_gather", "iommu"},
        GoldenCase{"oversub_gather", "neummu"}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return caseName(info.param);
    });

int
main(int argc, char **argv)
{
    // Strip --update-golden before gtest parses the command line.
    int out = 1;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--update-golden") == 0) {
            g_updateGolden = true;
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
