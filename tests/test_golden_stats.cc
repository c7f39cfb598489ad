/**
 * @file
 * Golden-stats regression harness: runs the fixed matrix of System
 * configurations in scripts/golden_matrix.jsonl (Oracle / baseline
 * IOMMU / NeuMMU and the zoo designs crossed with a dense CNN layer
 * stream, a demand-paged embedding gather, a synthetic hot-set
 * stream, a two-tenant co-run and an oversubscribed gather) and
 * compares each job's full StatsRegistry JSON dump byte-for-byte
 * against tests/golden/<job id>.json.
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
#include <sstream>
#include <string>
#include <vector>

#include "sweep/manifest.hh"
#include "sweep/sweep_engine.hh"
#include "system/system.hh"

using namespace neummu;

#ifndef NEUMMU_GOLDEN_DIR
#error "NEUMMU_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef NEUMMU_SCRIPTS_DIR
#error "NEUMMU_SCRIPTS_DIR must point at scripts/"
#endif

namespace {

bool g_updateGolden = false;

/** The golden matrix, one manifest job per golden file. */
const std::vector<sweep::JobSpec> &
goldenJobs()
{
    static const std::vector<sweep::JobSpec> jobs = sweep::loadManifest(
        std::string(NEUMMU_SCRIPTS_DIR) + "/golden_matrix.jsonl",
        SystemConfig{});
    return jobs;
}

std::string
goldenPath(const sweep::JobSpec &job)
{
    return std::string(NEUMMU_GOLDEN_DIR) + "/" + job.id + ".json";
}

/** Parametrized by the job's index in goldenJobs(). */
class GoldenStats : public ::testing::TestWithParam<std::size_t>
{
};

} // namespace

TEST_P(GoldenStats, MatchesGoldenDump)
{
    const sweep::JobSpec &job = goldenJobs()[GetParam()];
    const sweep::JobOutcome outcome =
        sweep::SweepEngine::runDeclarative(job);
    EXPECT_TRUE(outcome.allDone)
        << job.id << ": a workload never completed";
    const std::string &actual = outcome.statsJson;
    ASSERT_FALSE(actual.empty());
    const std::string path = goldenPath(job);

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
        << job.id
        << ": StatsRegistry dump diverged from the golden reference."
        << " If the simulated model changed intentionally, rerun"
        << " with --update-golden and review the diff; a kernel-only"
        << " (performance) change must never trip this.";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenStats,
    ::testing::Range(std::size_t{0}, goldenJobs().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return goldenJobs()[info.param].id;
    });

/**
 * The same matrix through the SweepEngine, serially and 4-wide:
 * parallel execution must be byte-identical to serial execution
 * (workers share no mutable state) and to the golden files, and jobs
 * must land at their manifest index in both runs.
 */
TEST(GoldenSweep, ParallelManifestMatchesSerialAndGoldens)
{
    if (g_updateGolden)
        GTEST_SKIP() << "golden files are being regenerated";

    const std::vector<sweep::JobSpec> &jobs = goldenJobs();
    ASSERT_EQ(jobs.size(), 16u)
        << "scripts/golden_matrix.jsonl must hold one job per "
           "tests/golden file";

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

        std::ifstream in(goldenPath(jobs[i]), std::ios::binary);
        ASSERT_TRUE(in.good())
            << "manifest job " << job.id << " has no golden file";
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(job.outcome.statsJson, golden.str()) << job.id;
    }
}

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
