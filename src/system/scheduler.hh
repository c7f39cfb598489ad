/**
 * @file
 * Multi-tenant run loop: places N Workloads onto a System's NPU
 * slots and runs them concurrently on the one event queue -- true
 * multi-tenant NPU scenarios (several traffic sources contending for
 * the shared MMU / router / memory) behind one call. Per-workload
 * completion ticks and counters land in the System's StatsRegistry
 * and in the returned SchedulerResult.
 */

#ifndef NEUMMU_SYSTEM_SCHEDULER_HH
#define NEUMMU_SYSTEM_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "workloads/workload.hh"

namespace neummu {

class System;

/** Outcome of one workload placement. */
struct WorkloadRunStats
{
    std::string name;
    unsigned npu = 0;
    bool done = false;
    Tick finishTick = 0;
    /** Translations / bytes this workload's slot issued during the run. */
    std::uint64_t translations = 0;
    std::uint64_t bytesFetched = 0;
    std::uint64_t dmaStallCycles = 0;
};

/** Outcome of one Scheduler::run(). */
struct SchedulerResult
{
    /** Final simulated time (all tenants drained). */
    Tick totalCycles = 0;
    bool allDone = false;
    /** Per-workload outcomes, in placement order. */
    std::vector<WorkloadRunStats> workloads;
};

/**
 * Owns the workloads placed on one System. add() binds each workload
 * to its slot immediately (VA allocation order == placement order,
 * deterministic); run() starts every workload at the current tick and
 * drains the event queue until all complete.
 */
class Scheduler
{
  public:
    explicit Scheduler(System &system);

    /** Place @p workload on NPU slot @p npu. One workload per slot;
     *  an out-of-range or taken slot throws ConfigError. */
    Workload &add(std::unique_ptr<Workload> workload, unsigned npu);

    /** Place @p workload on the next unoccupied NPU slot; throws
     *  ConfigError when every slot is taken. */
    Workload &add(std::unique_ptr<Workload> workload);

    std::size_t numWorkloads() const { return _entries.size(); }
    Workload &workload(std::size_t idx) const;

    /**
     * Start all placed workloads and drain the event queue (up to
     * @p limit ticks; the limit is inclusive, matching
     * EventQueue::run -- an event at exactly @p limit executes).
     * Returns per-workload stats; allDone is false only if the queue
     * drained (or the limit hit) with a workload still pending -- a
     * workload bug or a too-small limit.
     */
    SchedulerResult run(Tick limit = maxTick);

  private:
    struct Entry
    {
        std::unique_ptr<Workload> workload;
        unsigned npu = 0;
        std::uint64_t stallAtStart = 0;
    };

    System &_system;
    std::vector<Entry> _entries;
    std::vector<bool> _slotUsed;
};

} // namespace neummu

#endif // NEUMMU_SYSTEM_SCHEDULER_HH
