/**
 * @file
 * Trace-determinism and well-formedness suite: the Chrome trace JSON
 * is byte-identical across same-seed runs; emitted spans are
 * well-formed (no negative durations, parents enclose their
 * children, every opened span closed at drain); the exhaustive
 * latency partition's stage sums equal the end-to-end latency; the
 * tail trigger actually filters; and the bounded ring drops
 * oldest-first with counted drops.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "system/scheduler.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"
#include "workloads/workload_factory.hh"

using namespace neummu;

namespace {

/** Churn serving scenario with tracing on: every lifecycle family
 *  (requests, translations, walks, faults, page ops, hops) is live. */
SystemConfig
tracedServeConfig()
{
    SystemConfig cfg;
    cfg.name = "traced";
    cfg.seed = 77;
    cfg.numNpus = 8;
    cfg.serve.enabled = true;
    cfg.serve.arrival.kind = serving::ArrivalKind::Poisson;
    cfg.serve.arrival.ratePerMcycle = 300.0;
    cfg.serve.tenants = 8;
    cfg.serve.tenantLifetimeRequests = 6;
    cfg.serve.workload = "embedding:footprint=256K,accesses=16";
    cfg.trace.enabled = true;
    return cfg;
}

std::string
runAndTrace(const SystemConfig &cfg, Tick cycles)
{
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(cycles);
    std::ostringstream os;
    system.traceEngine().writeChromeTrace(os);
    return os.str();
}

} // namespace

TEST(TraceDeterminism, SameSeedSameTraceAcrossRuns)
{
    const SystemConfig cfg = tracedServeConfig();
    const std::string a = runAndTrace(cfg, 400000);
    EXPECT_NE(a.find("traceEvents"), std::string::npos);
    EXPECT_EQ(a, runAndTrace(cfg, 400000));
}

TEST(TraceWellFormed, SpansCloseAndParentsEncloseChildren)
{
    System system(tracedServeConfig());
    Scheduler scheduler(system);
    scheduler.run(400000);

    trace::TraceEngine &engine = system.traceEngine();
    engine.drain();
    const trace::TraceEngine::Report &rep = engine.report();

    EXPECT_GT(rep.tracedTranslations, 0u);
    EXPECT_GT(rep.tracedRequests, 0u);
    // Every opened span was closed by drain time.
    EXPECT_EQ(rep.openAtDrain, 0u);

    // No negative durations, and within each key the parent span
    // (Translation / Request, emitted first in its group) encloses
    // every child span.
    std::map<std::uint64_t, const trace::TraceSpan *> parents;
    for (const trace::TraceSpan &s : engine.emittedSpans()) {
        EXPECT_GE(s.end, s.start);
        if (s.stage == trace::Stage::Translation ||
            s.stage == trace::Stage::Request)
            parents[s.key] = &s;
    }
    ASSERT_FALSE(parents.empty());
    std::uint64_t children = 0;
    for (const trace::TraceSpan &s : engine.emittedSpans()) {
        if (trace::standaloneKey(s.key))
            continue;
        const auto it = parents.find(s.key);
        if (it == parents.end() || it->second == &s)
            continue;
        children++;
        EXPECT_GE(s.start, it->second->start)
            << trace::stageName(s.stage);
        EXPECT_LE(s.end, it->second->end)
            << trace::stageName(s.stage);
    }
    EXPECT_GT(children, 0u);
}

TEST(TraceWellFormed, StageSumsMatchEndToEndLatency)
{
    System system(tracedServeConfig());
    Scheduler scheduler(system);
    scheduler.run(400000);

    trace::TraceEngine &engine = system.traceEngine();
    engine.drain();
    const trace::TraceEngine::Report &rep = engine.report();

    // The decomposition is an exhaustive partition: per traced
    // request the charged stage ticks sum exactly to the request's
    // end-to-end latency, so the totals match too.
    EXPECT_TRUE(rep.sumsMatch);
    EXPECT_EQ(rep.translationChargedTicks, rep.translationE2eTicks);
    EXPECT_EQ(rep.requestChargedTicks, rep.requestE2eTicks);
    std::uint64_t stage_sum = 0;
    for (const trace::TraceEngine::StageRow &row : rep.stages)
        stage_sum += row.totalTicks;
    EXPECT_EQ(stage_sum, rep.translationE2eTicks);
    std::uint64_t req_sum = 0;
    for (const trace::TraceEngine::StageRow &row : rep.requestStages)
        req_sum += row.totalTicks;
    EXPECT_EQ(req_sum, rep.requestE2eTicks);
}

TEST(TraceTailTrigger, ThresholdFiltersFastRequests)
{
    SystemConfig cfg = tracedServeConfig();
    cfg.trace.tailThreshold = maxTick / 2; // nothing is that slow
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(400000);

    trace::TraceEngine &engine = system.traceEngine();
    engine.drain();
    const trace::TraceEngine::Report &rep = engine.report();
    // No request crossed the threshold: no request/translation
    // lifecycles flush; everything recorded stays in the ring.
    EXPECT_EQ(rep.tracedRequests, 0u);
    EXPECT_EQ(rep.tracedTranslations, 0u);
    EXPECT_GT(rep.spansRecorded, 0u);
    EXPECT_LT(rep.spansEmitted, rep.spansRecorded);
    // The standalone families (page ops, credit waits, prefetch
    // walks) are exempt from the trigger by design.
    for (const trace::TraceSpan &s : engine.emittedSpans())
        EXPECT_TRUE(trace::standaloneKey(s.key))
            << trace::stageName(s.stage);
}

TEST(TraceBufferRing, OverflowDropsOldestFirst)
{
    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.ring = 8;
    trace::TraceBuffer buf(cfg);
    for (std::uint64_t i = 0; i < 20; i++)
        buf.span(i, trace::Stage::Walk, Tick(i), Tick(i + 1));

    EXPECT_EQ(buf.spansRecorded(), 20u);
    EXPECT_EQ(buf.dropped(), 12u);
    std::vector<std::uint64_t> keys;
    buf.forEachSpan(
        [&](const trace::TraceSpan &s) { keys.push_back(s.key); });
    ASSERT_EQ(keys.size(), 8u);
    // Oldest dropped first: the ring retains the newest 8, oldest to
    // newest.
    for (std::uint64_t i = 0; i < 8; i++)
        EXPECT_EQ(keys[i], 12 + i);
}

TEST(TraceBufferRing, MarkOverflowCountedAndDropsOldest)
{
    trace::TraceConfig cfg;
    cfg.enabled = true;
    cfg.tailThreshold = 1; // not keep-all: completions mark keys
    cfg.marks = 4;
    trace::TraceBuffer buf(cfg);
    for (std::uint64_t i = 0; i < 10; i++)
        buf.complete(i, Tick(100));
    EXPECT_EQ(buf.marksDropped(), 6u);
    std::vector<std::uint64_t> marks;
    buf.forEachMark([&](std::uint64_t k) { marks.push_back(k); });
    ASSERT_EQ(marks.size(), 4u);
    for (std::uint64_t i = 0; i < 4; i++)
        EXPECT_EQ(marks[i], 6 + i);
}

TEST(TraceBufferRing, DroppedSpansCountedInReport)
{
    SystemConfig cfg = tracedServeConfig();
    cfg.trace.ring = 64; // far below the spans a run records
    System system(cfg);
    Scheduler scheduler(system);
    scheduler.run(400000);

    trace::TraceEngine &engine = system.traceEngine();
    engine.drain();
    EXPECT_GT(engine.report().dropped, 0u);
    // With keepAll semantics the ring kept only the newest spans;
    // the emitted count cannot exceed what the rings retained.
    EXPECT_LE(engine.report().spansEmitted,
              engine.report().spansRecorded -
                  engine.report().dropped);
}

TEST(TraceBufferRing, BlanketCloseWithoutOpenIsNoOp)
{
    trace::TraceConfig cfg;
    cfg.enabled = true;
    trace::TraceBuffer buf(cfg);
    EXPECT_EQ(buf.close(42, trace::Stage::PrmbMerge, 100), maxTick);
    EXPECT_EQ(buf.spansRecorded(), 0u);
    buf.open(42, trace::Stage::PrmbMerge, 10);
    EXPECT_EQ(buf.openCount(), 1u);
    EXPECT_EQ(buf.close(42, trace::Stage::PrmbMerge, 100), Tick(90));
    EXPECT_EQ(buf.openCount(), 0u);
    EXPECT_EQ(buf.spansRecorded(), 1u);
}
