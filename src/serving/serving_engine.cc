#include "serving/serving_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"

namespace neummu {
namespace serving {

namespace {

std::string
servingStatsName(const System &sys)
{
    const std::string &base = sys.config().name;
    return base.empty() ? "serving" : base + ".serving";
}

/** Serving slots: the first serve.slots NPUs (0 = all of them). */
std::vector<unsigned>
servingSlots(const System &sys, const ServeConfig &cfg)
{
    const unsigned count =
        cfg.slots ? std::min(cfg.slots, sys.numNpus()) : sys.numNpus();
    std::vector<unsigned> slots(count);
    for (unsigned i = 0; i < count; i++)
        slots[i] = i;
    return slots;
}

/** FNV-1a over the 8 bytes of @p v, little-endian byte order. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; i++) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

ServingEngine::ServingEngine(System &system, const ServeConfig &cfg)
    : _sys(system), _cfg(cfg),
      _model(requestModelFromSpecChecked(cfg.workload)),
      _slots(servingSlots(system, cfg)),
      _tenants(system, _cfg, _model, _slots),
      _arrival(ArrivalProcess::make(
          cfg.arrival,
          deriveSeed(system.config().seed, hashString("serve.arrival")))),
      _pickRng(
          deriveSeed(system.config().seed, hashString("serve.pick"))),
      _stats(servingStatsName(system))
{
    NEUMMU_ASSERT(_cfg.tenants >= 1, "serve.tenants must be >= 1");
    NEUMMU_ASSERT(_cfg.windowCycles >= 1,
                  "serve.window must be >= 1 cycle");
    if (_cfg.demandPaged) {
        NEUMMU_ASSERT(_sys.hasPagingEngine(),
                      "serve.demandPaged needs paging.enabled");
    }
    _queues.resize(_slots.size());
}

void
ServingEngine::start()
{
    NEUMMU_ASSERT(!_started, "serving engine started twice");
    _started = true;

    // Segment teardown at retire follows the unmap -> shootdown
    // discipline; lifecycle bookkeeping keeps vpnBusy() honest while
    // responses are on the wire.
    _sys.mmu().enableLifecycle();

    _latency = &_stats.histogram("latencyCycles");
    _queueWait = &_stats.histogram("queueWaitCycles");
    _service = &_stats.histogram("serviceCycles");
    _seriesArrivals =
        &_stats.series("windowArrivals", stats::Series::Merge::Sum);
    _seriesThroughput =
        &_stats.series("windowCompleted", stats::Series::Merge::Sum);
    _seriesGoodput =
        &_stats.series("windowGoodput", stats::Series::Merge::Sum);
    _seriesQueueDepth =
        &_stats.series("windowQueueDepth", stats::Series::Merge::Mean);

    for (unsigned i = 0; i < _cfg.tenants; i++) {
        if (!_tenants.admit())
            break;
    }
    _nextAdmitAt = _cfg.admitGapCycles;

    scheduleArrival(_arrival->next());
    _sys.eventQueue().scheduleIn(_cfg.windowCycles,
                                 [this] { sampleWindow(); });
}

void
ServingEngine::scheduleArrival(Tick at)
{
    _sys.eventQueue().schedule(at, [this, at] { onArrival(at); });
}

void
ServingEngine::onArrival(Tick at)
{
    NEUMMU_PROF_SCOPE(_sys.eventQueue().profiler(),
                      ProfSubsystem::Serving);
    _arrivals++;
    _windowArrivals++;
    _digest = fnvMix(_digest, at);

    const std::vector<Tenant *> &active = _tenants.active();
    if (active.empty()) {
        _unrouted++;
    } else {
        Tenant *tenant = active[_pickRng.range(active.size())];
        tenant->routed++;
        if (_cfg.queueLimit &&
            _queues[tenant->slot].size() >= _cfg.queueLimit) {
            _dropped++;
            *tenant->droppedStat += 1.0;
        } else {
            _queues[tenant->slot].push_back({tenant, at, _enqueued++});
            tenant->pending++;
            tryDispatch(tenant->slot);
        }
        if (_cfg.tenantLifetimeRequests &&
            tenant->routed >= _cfg.tenantLifetimeRequests &&
            !tenant->draining) {
            _tenants.beginDrain(*tenant);
            // Every routed request may already be done (or dropped);
            // then nothing is left to trigger the retire.
            maybeRetire(*tenant, at);
        }
    }

    scheduleArrival(_arrival->next());
}

void
ServingEngine::tryDispatch(unsigned slot)
{
    NEUMMU_PROF_SCOPE(_sys.eventQueue().profiler(),
                      ProfSubsystem::Serving);
    ArenaQueue<PendingRequest> &q = _queues[slot];
    if (q.empty() || _sys.dma(slot).busy())
        return;

    PendingRequest req = q.front();
    q.pop_front();
    const Tick dispatched = _sys.eventQueue().now();

    Tenant &tenant = *req.tenant;
    buildRequestRuns(_model, tenant.segment, tenant.dispatched,
                     tenant.rng, _runs);
    tenant.dispatched++;

    _sys.dma(slot).fetch(
        std::move(_runs), [this, slot, req, dispatched](Tick done) {
            onRequestDone(slot, req, dispatched, done);
        });
    _runs.clear();
}

void
ServingEngine::onRequestDone(unsigned slot, PendingRequest req,
                             Tick dispatched, Tick done)
{
    Tenant &tenant = *req.tenant;
    const Tick latency = done - req.arrived;
    _latency->record(latency);
    _queueWait->record(dispatched - req.arrived);
    _service->record(done - dispatched);

    if (_trace) {
        // The whole request lifecycle is known here, so the parent
        // span and its queue/service children are recorded in one
        // shot -- no open-span tracking on the arrival path. aux
        // carries (tenant ordinal, slot) for per-tenant attribution.
        const std::uint64_t key = trace::requestTag | req.seq;
        const std::uint32_t aux =
            std::uint32_t((tenant.id & 0xFFFF) << 16 | tenant.slot);
        _trace->span(key, trace::Stage::Request, req.arrived, done,
                     aux);
        _trace->span(key, trace::Stage::ReqQueue, req.arrived,
                     dispatched, aux);
        _trace->span(key, trace::Stage::ReqService, dispatched, done,
                     aux);
        _trace->complete(key, latency);
    }

    _completed++;
    _windowCompleted++;
    tenant.completed++;
    NEUMMU_ASSERT(tenant.pending > 0, "request completion underflow");
    tenant.pending--;
    *tenant.completedStat += 1.0;
    tenant.latencyStat->sample(double(latency));

    if (latency > _cfg.sloLatencyCycles) {
        _violations++;
        *tenant.violationsStat += 1.0;
    } else {
        _windowGood++;
    }

    maybeRetire(tenant, done);
    tryDispatch(slot);
}

void
ServingEngine::maybeRetire(Tenant &tenant, Tick at)
{
    if (!tenant.draining || tenant.pending != 0)
        return;
    _tenants.retire(tenant);
    admitReplacement(at);
}

void
ServingEngine::admitReplacement(Tick at)
{
    if (_cfg.maxAdmissions &&
        _tenants.admitted() >= _cfg.maxAdmissions) {
        return;
    }
    const Tick when = std::max(at, _nextAdmitAt);
    _nextAdmitAt = when + _cfg.admitGapCycles;
    if (when <= at)
        _tenants.admit();
    else
        _sys.eventQueue().schedule(when, [this] { _tenants.admit(); });
}

void
ServingEngine::sampleWindow()
{
    _seriesArrivals->append(double(_windowArrivals));
    _seriesThroughput->append(double(_windowCompleted));
    _seriesGoodput->append(double(_windowGood));
    std::uint64_t depth = 0;
    for (const ArenaQueue<PendingRequest> &q : _queues)
        depth += q.size();
    _seriesQueueDepth->append(double(depth));
    _windowArrivals = 0;
    _windowCompleted = 0;
    _windowGood = 0;
    _sys.eventQueue().scheduleIn(_cfg.windowCycles,
                                 [this] { sampleWindow(); });
}

ServeReport
ServingEngine::report() const
{
    ServeReport r;
    r.arrivals = _arrivals;
    r.completed = _completed;
    r.dropped = _dropped;
    r.unrouted = _unrouted;
    r.sloViolations = _violations;
    r.sloLatencyCycles = _cfg.sloLatencyCycles;
    r.admitted = _tenants.admitted();
    r.retired = _tenants.retired();
    r.liveTenants = _tenants.live();
    if (_latency && _latency->count()) {
        r.meanLatency = _latency->mean();
        r.p50 = _latency->quantile(0.5);
        r.p90 = _latency->quantile(0.9);
        r.p99 = _latency->quantile(0.99);
        r.p999 = _latency->quantile(0.999);
    }
    r.goodput = _completed
                    ? double(_completed - _violations) /
                          double(_completed)
                    : 1.0;
    for (const Tenant *tenant : _tenants.liveTenants()) {
        ServeReport::TenantLine line;
        line.name = tenant->name;
        line.slot = tenant->slot;
        line.completed = tenant->completed;
        line.violations =
            std::uint64_t(tenant->violationsStat->value());
        line.pending = tenant->pending;
        line.draining = tenant->draining;
        r.tenants.push_back(std::move(line));
    }
    return r;
}

void
ServingEngine::refreshStats()
{
    const auto set = [this](const char *stat, double v) {
        _stats.scalar(stat).set(v);
    };
    set("arrivals", double(_arrivals));
    set("completed", double(_completed));
    set("dropped", double(_dropped));
    set("unrouted", double(_unrouted));
    set("sloViolations", double(_violations));
    set("sloLatencyCycles", double(_cfg.sloLatencyCycles));
    set("admitted", double(_tenants.admitted()));
    set("retired", double(_tenants.retired()));
    set("liveTenants", double(_tenants.live()));
    // The 64-bit digest split into exactly representable halves (a
    // double carries 53 mantissa bits).
    set("arrivalDigestLo", double(_digest & 0xffffffffull));
    set("arrivalDigestHi", double(_digest >> 32));
    std::uint64_t depth = 0;
    for (const ArenaQueue<PendingRequest> &q : _queues)
        depth += q.size();
    set("queuedRequests", double(depth));
}

} // namespace serving
} // namespace neummu
