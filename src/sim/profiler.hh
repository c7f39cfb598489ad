/**
 * @file
 * Host-side cycle attribution for the simulation kernel
 * (`sim.profile=1`). When enabled, each event queue carries a
 * SimProfiler and the hot components bracket their callback bodies
 * with NEUMMU_PROF_SCOPE, attributing host nanoseconds and dispatch
 * counts to a small fixed set of subsystems. Nested scopes subtract
 * their elapsed time from the enclosing scope, so every subsystem
 * reports *self* time and the rows sum to the total measured wall
 * clock.
 *
 * When profiling is off (the default) the scope macro is a single
 * null-pointer test, so the instrumentation costs nothing measurable
 * on the hot path -- and, critically, no stats groups are registered,
 * keeping the golden stats dumps byte-identical.
 */

#ifndef NEUMMU_SIM_PROFILER_HH
#define NEUMMU_SIM_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace neummu {

/** Attribution buckets for profiled dispatch time. */
enum class ProfSubsystem : unsigned
{
    Kernel = 0, ///< event-queue machinery + unattributed callbacks
    DmaIssue,   ///< DMA burst issue / translation request path
    DmaData,    ///< DMA translation responses and data-burst landing
    MmuTranslate, ///< engine translate() front end (TLB, PTS, TPREG)
    MmuWalk,    ///< page-table walker launch/finish
    MmuRespond, ///< translation response delivery
    Memory,     ///< memory-model access timing
    Paging,     ///< demand paging / fault handling
    Serving,    ///< serving-engine arrivals and dispatch
    Workload,   ///< workload batch issue / tile bookkeeping
    Count
};

const char *profSubsystemName(ProfSubsystem s);

/**
 * Per-event-queue profile accumulator. Single-threaded by
 * construction: it is touched only from the thread running its
 * queue.
 */
class SimProfiler
{
  public:
    struct Slot
    {
        std::uint64_t count = 0;
        std::uint64_t nanos = 0;
    };

    static constexpr unsigned numSlots =
        unsigned(ProfSubsystem::Count);
    /** Pair-matrix parent index for "no enclosing scope". */
    static constexpr unsigned rootSlot = numSlots;

    const Slot &
    slot(ProfSubsystem s) const
    {
        return _slots[unsigned(s)];
    }

    /**
     * (parent, child) attribution: child self-time broken out by the
     * directly enclosing scope (@p parent == rootSlot for top-level
     * scopes). Feeds the collapsed-stack dump.
     */
    const Slot &
    pair(unsigned parent, ProfSubsystem child) const
    {
        return _pairs[parent][unsigned(child)];
    }

    void
    reset()
    {
        _slots.fill(Slot{});
        for (auto &row : _pairs)
            row.fill(Slot{});
    }

    /** Sum another profiler's slots into this one (dump-time merge). */
    void
    merge(const SimProfiler &other)
    {
        for (unsigned i = 0; i < numSlots; i++) {
            _slots[i].count += other._slots[i].count;
            _slots[i].nanos += other._slots[i].nanos;
        }
        for (unsigned p = 0; p <= rootSlot; p++)
            for (unsigned c = 0; c < numSlots; c++) {
                _pairs[p][c].count += other._pairs[p][c].count;
                _pairs[p][c].nanos += other._pairs[p][c].nanos;
            }
    }

    /**
     * Flamegraph-compatible collapsed-stack dump: one
     * "neummu;Parent;Child nanos" line per nonzero (parent, child)
     * pair ("neummu;Child nanos" for top-level scopes), in fixed slot
     * order. Feed to flamegraph.pl / speedscope / inferno as-is. The
     * stacks are two frames deep by construction -- the profiler
     * records the direct parent only, which is exactly the self-time
     * partition the subsystem table reports.
     */
    std::string collapsed() const;

    /**
     * RAII attribution scope. Elapsed time lands in the scope's
     * subsystem and is subtracted from the enclosing scope's, so
     * nesting yields self-time per subsystem.
     */
    class Scope
    {
      public:
        Scope(SimProfiler *prof, ProfSubsystem sub) : _prof(prof)
        {
            if (!_prof)
                return;
            _sub = unsigned(sub);
            _start = std::chrono::steady_clock::now();
        }

        ~Scope()
        {
            if (!_prof)
                return;
            const std::uint64_t ns =
                std::uint64_t(std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() -
                                  _start)
                                  .count());
            Slot &s = _prof->_slots[_sub];
            s.count++;
            s.nanos += ns;
            Slot &p = _prof->_pairs[_parentSub][_sub];
            p.count++;
            p.nanos += ns;
            // Self-time discipline, for the slot and its pair alike:
            // nested elapsed time is subtracted from the enclosing
            // accumulators (transiently wrapping is fine -- the
            // enclosing scope's own add nets it out).
            if (_prof->_current)
                _prof->_current->nanos -= ns;
            if (_prof->_currentPair)
                _prof->_currentPair->nanos -= ns;
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Call right after construction when the scope is active. */
        void
        enter()
        {
            if (!_prof)
                return;
            _parent = _prof->_current;
            _parentSub = _prof->_currentSub;
            _parentPair = _prof->_currentPair;
            _prof->_current = &_prof->_slots[_sub];
            _prof->_currentSub = _sub;
            _prof->_currentPair = &_prof->_pairs[_parentSub][_sub];
        }

        /** Paired with enter(); restores the enclosing scope. */
        void
        leave()
        {
            if (!_prof)
                return;
            // Scopes are strictly LIFO: leaving a scope that is not
            // the innermost one means an enter/leave pair was
            // dropped or reordered, and every self-time subtraction
            // from here on would land in the wrong slot.
            NEUMMU_ASSERT(_prof->_current == &_prof->_slots[_sub] &&
                              _prof->_currentSub == _sub,
                          "profiler scopes must unwind LIFO");
            _prof->_current = _parent;
            _prof->_currentSub = _parentSub;
            _prof->_currentPair = _parentPair;
        }

      private:
        SimProfiler *_prof;
        unsigned _sub = 0;
        /** Direct parent at enter() time (rootSlot when top-level). */
        unsigned _parentSub = rootSlot;
        Slot *_parent = nullptr;
        Slot *_parentPair = nullptr;
        std::chrono::steady_clock::time_point _start;
    };

  private:
    std::array<Slot, numSlots> _slots{};
    /** [parent][child] self-time; parent rootSlot = top level. */
    std::array<std::array<Slot, numSlots>, rootSlot + 1> _pairs{};
    Slot *_current = nullptr;
    unsigned _currentSub = rootSlot;
    Slot *_currentPair = nullptr;
};

/**
 * Attribution scope for one callback body. @p prof is a SimProfiler*
 * (null when profiling is off -- the common case, costing one branch).
 */
#define NEUMMU_PROF_CONCAT2(a, b) a##b
#define NEUMMU_PROF_CONCAT(a, b) NEUMMU_PROF_CONCAT2(a, b)
#define NEUMMU_PROF_SCOPE(prof, sub)                                  \
    ::neummu::ProfScopeGuard NEUMMU_PROF_CONCAT(                      \
        neummu_prof_scope_, __LINE__)((prof), (sub))

/** Scope + current-slot bookkeeping bundled for the macro. */
class ProfScopeGuard
{
  public:
    ProfScopeGuard(SimProfiler *prof, ProfSubsystem sub)
        : _scope(prof, sub)
    {
        _scope.enter();
    }
    ~ProfScopeGuard() { _scope.leave(); }

  private:
    SimProfiler::Scope _scope;
};

} // namespace neummu

#endif // NEUMMU_SIM_PROFILER_HH
