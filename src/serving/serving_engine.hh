/**
 * @file
 * Open-loop serving engine: drives a System with an arrival-process
 * request stream routed over churning tenants, and reports SLO-grade
 * latency observability (HDR-histogram quantiles, windowed
 * throughput/goodput, queue-depth series) through the standard stats
 * dump.
 *
 * Unlike the closed-loop Workload drivers, the request generator
 * never waits for the system: arrivals keep coming at the configured
 * rate whether or not earlier requests finished, so queueing delay --
 * the dominant term of tail latency under load -- is measured, not
 * hidden. This is the steady-state multi-tenant NPU pool NeuMMU
 * motivates (Section I) observed the way a production serving stack
 * would observe it.
 *
 * Determinism: all serving machinery (arrival events, routing,
 * dispatch, tenant churn) runs on the System's event queue, so the
 * dump is byte-identical across same-seed runs. The arrival timestamp
 * sequence itself is a pure function of (config, seed).
 */

#ifndef NEUMMU_SERVING_SERVING_ENGINE_HH
#define NEUMMU_SERVING_SERVING_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "npu/tile.hh"
#include "serving/arrival.hh"
#include "serving/serve_config.hh"
#include "serving/tenant.hh"
#include "workloads/request_model.hh"

namespace neummu {

class System;

namespace trace {
class TraceBuffer;
}

namespace serving {

/**
 * Point-in-time SLO summary. A sweep job keeps its System's report in
 * JobOutcome::serve, and neummu_sweep prints it after the sweep.
 */
struct ServeReport
{
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    /** Arrivals dropped at a full slot queue (serve.queueLimit). */
    std::uint64_t dropped = 0;
    /** Arrivals with no routable tenant (all draining/retired). */
    std::uint64_t unrouted = 0;
    std::uint64_t sloViolations = 0;
    /** The SLO the violations count against (serve.sloLatency). */
    std::uint64_t sloLatencyCycles = 0;
    std::uint64_t admitted = 0;
    std::uint64_t retired = 0;
    std::uint64_t liveTenants = 0;

    double meanLatency = 0.0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;
    /** Fraction of completions meeting the SLO (1.0 when idle). */
    double goodput = 1.0;

    struct TenantLine
    {
        std::string name;
        unsigned slot = 0;
        std::uint64_t completed = 0;
        std::uint64_t violations = 0;
        std::uint64_t pending = 0;
        bool draining = false;
    };
    /** Live tenants in name order. */
    std::vector<TenantLine> tenants;
};

/**
 * Owned by System when SystemConfig.serve.enabled. The Scheduler
 * starts it alongside any closed-loop workloads; it then generates
 * arrivals until the run's cycle limit. Counters and distributions
 * land in the registry as "<system>.serving.*" plus one dynamic group
 * per live tenant.
 */
class ServingEngine
{
  public:
    /**
     * Compiles serve.workload into a RequestModel (throws
     * WorkloadError on a bad spec). Construct after the System's
     * NPUs and paging engine exist; one engine per System.
     */
    ServingEngine(System &system, const ServeConfig &cfg);

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Admit the initial tenant cohort and schedule the first arrival
     * and the window sampler. Call exactly once, at tick 0, before
     * running; open-loop runs need a finite run limit.
     */
    void start();
    bool started() const { return _started; }

    const ServeConfig &config() const { return _cfg; }
    const RequestModel &model() const { return _model; }
    /** NPU slots serving requests. */
    const std::vector<unsigned> &slots() const { return _slots; }

    // --- Live counters (also mirrored into "<sys>.serving") --------
    std::uint64_t arrivals() const { return _arrivals; }
    std::uint64_t completed() const { return _completed; }
    std::uint64_t dropped() const { return _dropped; }
    std::uint64_t unrouted() const { return _unrouted; }
    std::uint64_t sloViolations() const { return _violations; }
    std::uint64_t admitted() const { return _tenants.admitted(); }
    std::uint64_t retired() const { return _tenants.retired(); }
    std::uint64_t liveTenants() const { return _tenants.live(); }

    /**
     * FNV-1a digest over the arrival tick sequence. A pure function
     * of (arrival config, seed): identical across reps and worker
     * counts -- the open-loop invariance tests key off it.
     */
    std::uint64_t arrivalDigest() const { return _digest; }

    /** Summarize the current state (refreshes nothing). */
    ServeReport report() const;

    stats::Group &stats() { return _stats; }

    /** Mirror live counters into the stats group before a dump. */
    void refreshStats();

    /** Attach a lifecycle trace buffer (System wiring). Requests
     *  trace under requestTag keys, one parent span per served
     *  request with queue/service children. */
    void setTrace(trace::TraceBuffer *buf) { _trace = buf; }

  private:
    struct PendingRequest
    {
        Tenant *tenant = nullptr;
        Tick arrived = 0;
        /** Enqueue ordinal: the request's trace identity. */
        std::uint64_t seq = 0;
    };

    void scheduleArrival(Tick at);
    void onArrival(Tick at);
    void tryDispatch(unsigned slot);
    void onRequestDone(unsigned slot, PendingRequest req,
                       Tick dispatched, Tick done);
    void maybeRetire(Tenant &tenant, Tick at);
    void admitReplacement(Tick at);
    void sampleWindow();

    System &_sys;
    ServeConfig _cfg;
    RequestModel _model;
    std::vector<unsigned> _slots;
    TenantManager _tenants;
    std::unique_ptr<ArrivalProcess> _arrival;
    /** Tenant-routing stream, independent of the arrival clock. */
    Rng _pickRng;

    /** Per-slot FIFO of requests waiting for the slot's DMA. An
     *  ArenaQueue keeps one retained buffer per slot instead of
     *  std::deque's chunked allocation churn. */
    std::vector<ArenaQueue<PendingRequest>> _queues;
    std::vector<VaRun> _runs;

    bool _started = false;
    std::uint64_t _arrivals = 0;
    std::uint64_t _completed = 0;
    std::uint64_t _dropped = 0;
    std::uint64_t _unrouted = 0;
    std::uint64_t _violations = 0;
    std::uint64_t _digest = 14695981039346656037ull;
    /** Earliest tick the next replacement admission may happen. */
    Tick _nextAdmitAt = 0;
    /** Enqueued-request ordinal (deterministic: hub-queue order). */
    std::uint64_t _enqueued = 0;
    trace::TraceBuffer *_trace = nullptr;

    std::uint64_t _windowArrivals = 0;
    std::uint64_t _windowCompleted = 0;
    std::uint64_t _windowGood = 0;

    stats::Group _stats;
    stats::Histogram *_latency = nullptr;
    stats::Histogram *_queueWait = nullptr;
    stats::Histogram *_service = nullptr;
    stats::Series *_seriesArrivals = nullptr;
    stats::Series *_seriesThroughput = nullptr;
    stats::Series *_seriesGoodput = nullptr;
    stats::Series *_seriesQueueDepth = nullptr;
};

} // namespace serving
} // namespace neummu

#endif // NEUMMU_SERVING_SERVING_ENGINE_HH
