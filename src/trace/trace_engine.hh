/**
 * @file
 * The tracing subsystem: one TraceBuffer (bounded, drop-oldest)
 * feeding a drain-time TraceEngine that assembles per-request
 * lifecycles, charges every tick of a traced request's end-to-end
 * latency to exactly one stage, and emits Chrome-trace-event JSON
 * (Perfetto-loadable).
 *
 * Components record into the buffer while the simulation runs; the
 * engine reads it after run() returns. The event stream is
 * deterministic, so the assembled trace -- including the drop-oldest
 * ring contents and the tail-trigger decisions -- is byte-identical
 * across same-seed runs.
 *
 * Retroactive capture: every span lands in the ring regardless of
 * the trigger; completion-time marks (tailThreshold / live-p99)
 * select which request keys are flushed at drain. The ring is the
 * "flight recorder", the marks are the "dump" decision -- a slow
 * request's whole lifecycle is recoverable after the fact without
 * tracing everything to the sink.
 */

#ifndef NEUMMU_TRACE_TRACE_ENGINE_HH
#define NEUMMU_TRACE_TRACE_ENGINE_HH

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace neummu {
namespace trace {

/**
 * Span recorder. The mutators run inside simulation events; the
 * const drain surface is read after the run completes.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(const TraceConfig &cfg);

    // --- record-side (hot path; callers null-check the buffer) -----
    /** Record a closed span. */
    void span(std::uint64_t key, Stage st, Tick start, Tick end,
              std::uint32_t aux = 0);

    /** Park an open span whose end is not yet known. */
    void open(std::uint64_t key, Stage st, Tick start);

    /**
     * Close a parked span and record it; returns the span's duration,
     * or maxTick when (key, stage) was never opened (no-op then, so
     * blanket close calls on paths where only some requests opened
     * are safe).
     */
    Tick close(std::uint64_t key, Stage st, Tick end,
               std::uint32_t aux = 0);

    /**
     * A request keyed @p key completed with end-to-end latency
     * @p e2e: feed the live-p99 estimator and mark the key for
     * retroactive flush when the tail trigger fires.
     */
    void complete(std::uint64_t key, Tick e2e);

    /** Unconditionally mark @p key for flush at drain. */
    void mark(std::uint64_t key);

    // --- drain-side ------------------------------------------------
    std::uint64_t spansRecorded() const { return _recorded; }
    /** Spans overwritten by ring wrap (oldest dropped first). */
    std::uint64_t dropped() const { return _dropped; }
    std::uint64_t marksDropped() const { return _marksDropped; }
    /** Spans opened but never closed (0 after a clean drain). */
    std::size_t openCount() const;
    std::uint64_t completions() const { return _completions; }

    /** Ring contents, oldest to newest (non-destructive). */
    template <typename F>
    void
    forEachSpan(F &&f) const
    {
        const std::size_t n = _ring.size();
        for (std::size_t i = 0; i < n; i++)
            f(_ring[(_head + i) % n]);
    }

    template <typename F>
    void
    forEachMark(F &&f) const
    {
        const std::size_t n = _marks.size();
        for (std::size_t i = 0; i < n; i++)
            f(_marks[(_marksHead + i) % n]);
    }

    bool keepAll() const { return _keepAll; }
    /** Record-time duration histogram per stage (full coverage). */
    const stats::Histogram &stageHist(Stage st) const
    {
        return _stageHist[unsigned(st)];
    }
    const stats::Histogram &e2eHist() const { return _e2e; }

  private:
    void push(const TraceSpan &s);

    TraceConfig _cfg;
    bool _keepAll;

    /** Span ring: append until full, then overwrite at _head. */
    std::vector<TraceSpan> _ring;
    std::size_t _head = 0;
    std::uint64_t _recorded = 0;
    std::uint64_t _dropped = 0;

    /** Marked request keys (drop-oldest ring as well). */
    std::vector<std::uint64_t> _marks;
    std::size_t _marksHead = 0;
    std::uint64_t _marksDropped = 0;

    /** Parked open spans, one table per stage (collision-free). */
    std::array<FlatMap64<Tick>, numStages> _open;

    std::array<stats::Histogram, numStages> _stageHist;
    stats::Histogram _e2e{5};
    std::uint64_t _completions = 0;
    Tick _cachedP99 = 0;
};

/**
 * Owns the TraceBuffer and the drain-time assembly:
 * lifecycle reconstruction, the per-stage latency decomposition, the
 * Chrome trace sink, and the trace.* stats group (registered by
 * System only when tracing is enabled, so golden dumps never change).
 */
class TraceEngine
{
  public:
    TraceEngine(std::string system_name, TraceConfig cfg,
                stats::Group &stats);

    const TraceConfig &config() const { return _cfg; }
    /** The buffer every component records into; its address is
     *  stable for the engine's lifetime. */
    TraceBuffer &buffer() { return _buffer; }

    /** Per-stage accumulation of the charged decomposition. */
    struct StageRow
    {
        std::uint64_t count = 0;      ///< requests charged this stage
        std::uint64_t totalTicks = 0; ///< ticks charged to this stage
        stats::Histogram hist{5};     ///< per-request charged ticks
    };

    /** Serving-level per-tenant decomposition (from Request spans). */
    struct TenantRow
    {
        std::uint32_t tenant = 0; ///< admission ordinal
        std::uint64_t count = 0;
        stats::Histogram e2e{5};
        stats::Histogram queue{5};
        stats::Histogram service{5};
    };

    struct Report
    {
        /**
         * Charged per-stage decomposition over traced Translation
         * parents, indexed by Stage. Every tick of every traced
         * request's end-to-end latency is charged to exactly one
         * stage (overlaps trimmed, uncovered gaps charged to
         * QueueDelay, the delivery tail to Respond), so
         * sum(stages[*].totalTicks) == e2eTicks by construction --
         * checked and exported as sumsMatch.
         */
        std::array<StageRow, numStages> stages{};
        /** Same partition over serving Request parents. */
        std::array<StageRow, numStages> requestStages{};
        std::vector<TenantRow> tenants;
        std::uint64_t tracedTranslations = 0;
        std::uint64_t tracedRequests = 0;
        std::uint64_t translationChargedTicks = 0;
        std::uint64_t translationE2eTicks = 0;
        std::uint64_t requestChargedTicks = 0;
        std::uint64_t requestE2eTicks = 0;
        bool sumsMatch = true;
        std::uint64_t spansRecorded = 0;
        std::uint64_t spansEmitted = 0;
        std::uint64_t dropped = 0;
        std::uint64_t marksDropped = 0;
        std::uint64_t openAtDrain = 0;
    };

    /**
     * Re-assemble lifecycles from the current buffer contents.
     * Idempotent (the buffer is read, not consumed).
     */
    void drain();

    /** Valid after drain(). */
    const Report &report() const { return _report; }
    const std::vector<TraceSpan> &emittedSpans() const
    {
        return _emitted;
    }

    /** Drain + write the Chrome trace-event JSON sink. */
    void writeChromeTrace(std::ostream &os);
    /** writeChromeTrace to @p path; false (with errno intact) on I/O
     *  failure. */
    bool writeChromeTraceFile(const std::string &path);

    /** Drain + mirror the report into the trace.* stats group. */
    void refreshStats();

    /** Display lane (Chrome tid) for a span; see laneName(). */
    static std::uint32_t laneOf(const TraceSpan &s);
    static std::string laneName(std::uint32_t lane);

  private:
    void chargeParent(const TraceSpan &parent,
                      std::vector<const TraceSpan *> &children,
                      std::array<StageRow, numStages> &rows,
                      std::uint64_t &charged_ticks);

    std::string _name;
    TraceConfig _cfg;
    TraceBuffer _buffer;
    stats::Group &_stats;

    std::vector<TraceSpan> _emitted;
    Report _report;
};

} // namespace trace
} // namespace neummu

#endif // NEUMMU_TRACE_TRACE_ENGINE_HH
