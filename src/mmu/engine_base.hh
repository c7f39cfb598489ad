/**
 * @file
 * Shared plumbing for the non-walker-core translation designs
 * (RangeMMU, POM-TLB, NMT): response scheduling with lifecycle
 * delivery-window tracking, demand-fault resolution, in-flight VPN
 * bookkeeping for vpnBusy(), and the common counter mirror. A design
 * built on this base only implements its lookup structures, its
 * timing, and its invalidation rule.
 *
 * Coherence model: these engines bind the physical address LATE --
 * the functional page-table walk that produces the responded PA runs
 * at completion time, never at issue time for a miss -- and every
 * in-flight request registers its VPN, so the paging engine (which
 * refuses to evict vpnBusy pages) can never unmap a page under an
 * outstanding miss. Cached design state (ranges, POM entries, segment
 * entries) is kept coherent by shootdown().
 */

#ifndef NEUMMU_MMU_ENGINE_BASE_HH
#define NEUMMU_MMU_ENGINE_BASE_HH

#include <string>

#include "common/flat_map.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mmu/mmu_engine.hh"
#include "sim/event_queue.hh"
#include "vm/page_table.hh"

namespace neummu {

class TimedMmuEngine : public MmuEngine
{
  public:
    TimedMmuEngine(std::string name, EventQueue &eq, PageTable &pt,
                   unsigned page_shift);

    void setResponseCallback(ResponseCallback cb) override;
    void setWakeCallback(WakeCallback cb) override;
    void setFaultHandler(FaultHandler handler) override;
    void enableLifecycle() override;
    void setAccessHook(AccessHook hook) override;

    bool vpnBusy(Addr vpn) const override;
    const MmuCounts &counts() const override { return _counts; }
    stats::Group &stats() override { return _stats; }

    void shootdown(Addr va, const UnmapResult &unmapped) override;
    void invalidate(Addr va) override;

    /** Common counter mirror + the design-specific hook. */
    void refreshStats() override;

    /** Attach a lifecycle trace buffer (System wiring). */
    void setTraceBuffer(trace::TraceBuffer *buf) override
    {
        _trace = buf;
    }

    /** Outstanding misses currently in flight (tests/diagnostics). */
    unsigned busyLookups() const { return _busy; }

  protected:
    /** Drop every cached translation covering @p vpn. */
    virtual void invalidateDesign(Addr vpn) = 0;
    /** Mirror design-specific counters into the stats group. */
    virtual void refreshDesignStats() {}

    Addr vpnOf(Addr va) const { return va >> _pageShift; }

    /** Schedule a response, tracking the delivery window under
     *  lifecycle so vpnBusy() covers in-wire responses. */
    void respondAt(Tick when, const TranslationResponse &resp);

    /**
     * Functional translate with demand-fault resolution: walks the
     * page table, faulting the page in through the handler when
     * unmapped. @p ready receives the residency tick (== @p now when
     * no fault was taken).
     */
    WalkResult resolve(Addr va, Tick now, Tick &ready);

    /** Register / retire an outstanding miss on @p vpn. */
    void noteInflight(Addr vpn);
    void dropInflight(Addr vpn);

    std::string _name;
    EventQueue &_eq;
    PageTable &_pt;
    const unsigned _pageShift;
    ResponseCallback _respond;
    WakeCallback _wake;
    FaultHandler _fault;
    AccessHook _access;
    bool _lifecycle = false;
    /** Outstanding misses (issue slots taken). */
    unsigned _busy = 0;
    /** Lifecycle trace buffer; null keeps tracing off this design. */
    trace::TraceBuffer *_trace = nullptr;
    MmuCounts _counts;

  private:
    /** VPN -> outstanding-miss multiplicity. */
    FlatMap64<unsigned> _inflight;
    /** VPN -> scheduled-but-undelivered responses (lifecycle only). */
    FlatMap64<unsigned> _pendingResp;
    stats::Group _stats;
};

} // namespace neummu

#endif // NEUMMU_MMU_ENGINE_BASE_HH
