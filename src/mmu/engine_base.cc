#include "mmu/engine_base.hh"

#include "common/logging.hh"

namespace neummu {

TimedMmuEngine::TimedMmuEngine(std::string name, EventQueue &eq,
                               PageTable &pt, unsigned page_shift)
    : _name(std::move(name)), _eq(eq), _pt(pt), _pageShift(page_shift),
      _inflight(64), _pendingResp(64), _stats(_name)
{
}

void
TimedMmuEngine::setResponseCallback(ResponseCallback cb)
{
    _respond = std::move(cb);
}

void
TimedMmuEngine::setWakeCallback(WakeCallback cb)
{
    _wake = std::move(cb);
}

void
TimedMmuEngine::setFaultHandler(FaultHandler handler)
{
    _fault = std::move(handler);
}

void
TimedMmuEngine::enableLifecycle()
{
    _lifecycle = true;
}

void
TimedMmuEngine::setAccessHook(AccessHook hook)
{
    _access = std::move(hook);
}

bool
TimedMmuEngine::vpnBusy(Addr vpn) const
{
    return _inflight.contains(vpn) || _pendingResp.contains(vpn);
}

void
TimedMmuEngine::shootdown(Addr va, const UnmapResult &unmapped)
{
    (void)unmapped; // no interior-node caches in these designs
    _counts.shootdowns++;
    invalidateDesign(vpnOf(va));
}

void
TimedMmuEngine::invalidate(Addr va)
{
    shootdown(va, UnmapResult{});
}

void
TimedMmuEngine::respondAt(Tick when, const TranslationResponse &resp)
{
    NEUMMU_ASSERT(_respond, "no response callback installed");
    _counts.responses++;
    if (_lifecycle) {
        // Track the delivery window so vpnBusy() keeps the paging
        // engine from migrating a page whose (already translated)
        // response is still on the wire.
        _pendingResp.insert(vpnOf(resp.va), 0u).first++;
        _eq.schedule(when, [this, resp] {
            NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuRespond);
            unsigned *pending = _pendingResp.find(vpnOf(resp.va));
            NEUMMU_ASSERT(pending, "pending-response tracking lost");
            if (--*pending == 0)
                _pendingResp.erase(vpnOf(resp.va));
            _respond(resp);
        });
        return;
    }
    _eq.schedule(when, [this, resp] {
        NEUMMU_PROF_SCOPE(_eq.profiler(), ProfSubsystem::MmuRespond);
        _respond(resp);
    });
}

WalkResult
TimedMmuEngine::resolve(Addr va, Tick now, Tick &ready)
{
    ready = now;
    WalkResult walk = _pt.walk(va);
    if (!walk.valid) {
        if (!_fault)
            throw ConfigError("unmapped page at VA " + std::to_string(va) +
                              " and no fault handler (paging.enabled=0)");
        _counts.faults++;
        ready = _fault(va, now);
        walk = _pt.walk(va);
        NEUMMU_ASSERT(walk.valid, "fault handler did not map page");
    }
    NEUMMU_ASSERT(walk.pageShift == _pageShift,
                  "mapping granularity differs from MMU page size");
    return walk;
}

void
TimedMmuEngine::noteInflight(Addr vpn)
{
    _inflight.insert(vpn, 0u).first++;
}

void
TimedMmuEngine::dropInflight(Addr vpn)
{
    unsigned *count = _inflight.find(vpn);
    NEUMMU_ASSERT(count, "in-flight bookkeeping lost");
    if (--*count == 0)
        _inflight.erase(vpn);
}

void
TimedMmuEngine::refreshStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        _stats.scalar(stat).set(double(v));
    };
    set("requests", _counts.requests);
    set("responses", _counts.responses);
    set("tlbHits", _counts.tlbHits);
    set("tlbMisses", _counts.tlbMisses);
    set("walks", _counts.walks);
    set("blockedIssues", _counts.blockedIssues);
    set("walkMemAccesses", _counts.walkMemAccesses);
    set("faults", _counts.faults);
    // Same dump-shape convention as MmuCore: coherence counters only
    // appear once the lifecycle machinery is in play.
    if (_lifecycle || _counts.shootdowns) {
        set("shootdowns", _counts.shootdowns);
        set("squashedWalks", _counts.squashedWalks);
    }
    refreshDesignStats();
}

} // namespace neummu
