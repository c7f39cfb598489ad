#include "system/paging_engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "system/system.hh"
#include "trace/trace_engine.hh"

namespace neummu {

namespace {

std::string
pagingStatsName(const System &sys)
{
    const std::string &base = sys.config().name;
    return base.empty() ? "paging" : base + ".paging";
}

} // namespace

PagingEngine::PagingEngine(System &system, const PagingConfig &cfg)
    : _sys(system), _cfg(cfg),
      _pageShift(system.config().pageShift),
      _pageBytes(pageSize(system.config().pageShift)),
      _resident(cfg.policy),
      _link(pagingStatsName(system) + ".link", cfg.link),
      _stats(pagingStatsName(system))
{
    const std::uint64_t node_bytes =
        _sys.hbmNode(_cfg.homeNode).size();
    std::uint64_t limit = _cfg.residentLimitBytes
                              ? std::min(_cfg.residentLimitBytes,
                                         node_bytes)
                              : node_bytes;
    _maxResidentPages = limit / _pageBytes;
    if (_maxResidentPages < 2)
        throw ConfigError("paging.residentLimitBytes allows " +
                          std::to_string(_maxResidentPages) +
                          " page(s); a residency cap below two pages "
                          "cannot make progress");

    MmuEngine &mmu = _sys.mmu();
    mmu.enableLifecycle();
    mmu.setFaultHandler([this](Addr va, Tick now) -> Tick {
        return handleFault(va, now);
    });
    // Access recency feeds victim selection (LRU order / CLOCK bits).
    mmu.setAccessHook([this](Addr va) {
        _resident.touch(pageBase(va, _pageShift));
    });
}

bool
PagingEngine::evictOne(bool timed, Tick &when)
{
    MmuEngine &mmu = _sys.mmu();
    const Addr victim = _resident.evictVictim([this, &mmu](Addr page) {
        // Never rip out a page with a walk in flight or a translated
        // response still on the wire; the policy passes it over.
        return !mmu.vpnBusy(page >> _pageShift);
    });
    if (victim == invalidAddr)
        return false;

    const UnmapResult um = _sys.pageTable().unmap(victim);
    NEUMMU_ASSERT(um.unmapped, "resident page was not mapped");
    mmu.shootdown(victim, um);
    _shootdowns++;
    _sys.hbmNode(_cfg.homeNode).free(um.frame, _pageBytes);
    _evictions++;

    if (_cfg.writebackOnEvict) {
        _writebackBytes += _pageBytes;
        if (timed) {
            // Read the victim out of local memory, then push it back
            // across the host link; the fetch queues behind it.
            const Tick started = when;
            const Tick read_done = _sys.memory(_cfg.homeNode)
                                       .access(when, um.frame,
                                               _pageBytes, false);
            when = _link.transfer(read_done, _pageBytes);
            if (_trace)
                _trace->span(trace::pageTag | (victim >> _pageShift),
                             trace::Stage::PageEvict, started, when);
        }
    }
    return true;
}

Addr
PagingEngine::acquireFrame(bool timed, Tick &when)
{
    FrameAllocator &node = _sys.hbmNode(_cfg.homeNode);
    Addr frame = invalidAddr;
    for (;;) {
        if (_resident.size() < _maxResidentPages &&
            node.tryAllocate(_pageBytes, _pageBytes, frame)) {
            return frame;
        }
        if (evictOne(timed, when))
            continue;
        // Every resident page is pinned by in-flight translation
        // work. The cap is soft: overshoot rather than deadlock
        // (driver reclaim is asynchronous in real systems too) and
        // evict back down on the next fault.
        if (node.tryAllocate(_pageBytes, _pageBytes, frame)) {
            _overcommits++;
            return frame;
        }
        throw ConfigError(
            "paging node exhausted with every resident page pinned "
            "by in-flight translations; npuHbmBytes is too small for "
            "the machine's translation window");
    }
}

Tick
PagingEngine::handleFault(Addr va, Tick now)
{
    const Addr page = pageBase(va, _pageShift);
    if (const Tick *pending = _migrating.find(page)) {
        // A second walker faulted on a page already being fetched:
        // it simply waits for the in-flight migration.
        _coalescedFaults++;
        return *pending;
    }

    _faults++;

    Tick when = now + _cfg.faultLatency;
    const Addr frame = acquireFrame(true, when);

    _sys.pageTable().map(page, frame, _pageShift);
    _resident.insert(page);
    _residentPeak = std::max<std::uint64_t>(_residentPeak,
                                            _resident.size());

    // Page data crosses the host link, then lands in the node.
    const Tick arrived = _link.transfer(when, _pageBytes);
    const Tick ready = _sys.memory(_cfg.homeNode)
                           .access(arrived, frame, _pageBytes, true);
    _fetchedBytes += _pageBytes;
    _stallCycles += ready - now;

    if (_trace)
        _trace->span(trace::pageTag | (page >> _pageShift),
                     trace::Stage::PageFetch, now, ready);

    _migrating.insert(page, ready);
    _sys.eventQueue().schedule(ready,
                               [this, page] { _migrating.erase(page); });
    return ready;
}

void
PagingEngine::installResident(Addr page_va)
{
    const Addr page = pageBase(page_va, _pageShift);
    if (_resident.contains(page))
        return;
    NEUMMU_ASSERT(!_sys.pageTable().isMapped(page),
                  "installResident on a page mapped outside the "
                  "paging engine");
    Tick when = 0;
    const Addr frame = acquireFrame(false, when);
    _sys.pageTable().map(page, frame, _pageShift);
    _resident.insert(page);
    _residentPeak = std::max<std::uint64_t>(_residentPeak,
                                            _resident.size());
}

bool
PagingEngine::releasePage(Addr page_va)
{
    const Addr page = pageBase(page_va, _pageShift);
    if (!_resident.contains(page))
        return false;
    const bool removed = _resident.remove(page);
    NEUMMU_ASSERT(removed, "resident-set tracking lost");
    const UnmapResult um = _sys.pageTable().unmap(page);
    NEUMMU_ASSERT(um.unmapped, "resident page was not mapped");
    _sys.mmu().shootdown(page, um);
    _shootdowns++;
    _sys.hbmNode(_cfg.homeNode).free(um.frame, _pageBytes);
    _released++;
    return true;
}

void
PagingEngine::refreshStats()
{
    const auto set = [this](const char *stat, std::uint64_t v) {
        _stats.scalar(stat).set(double(v));
    };
    set("faults", _faults);
    set("coalescedFaults", _coalescedFaults);
    set("overcommits", _overcommits);
    set("evictions", _evictions);
    // Pages moved across the link in either direction.
    set("migrations",
        _faults + (_cfg.writebackOnEvict ? _evictions : 0));
    set("shootdowns", _shootdowns);
    set("fetchedBytes", _fetchedBytes);
    set("writebackBytes", _writebackBytes);
    set("stallCycles", _stallCycles);
    set("residentPeakPages", _residentPeak);
    // Only present once segment teardown has happened, so the golden
    // dumps of the pre-serving scenarios stay byte-identical.
    if (_released)
        set("releasedPages", _released);
}

} // namespace neummu
