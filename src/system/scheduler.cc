#include "system/scheduler.hh"

#include "common/logging.hh"
#include "serving/serving_engine.hh"
#include "system/system.hh"

namespace neummu {

Scheduler::Scheduler(System &system)
    : _system(system), _slotUsed(system.numNpus(), false)
{
}

Workload &
Scheduler::add(std::unique_ptr<Workload> workload, unsigned npu)
{
    NEUMMU_ASSERT(workload != nullptr, "null workload");
    if (npu >= _system.numNpus())
        throw ConfigError("NPU slot " + std::to_string(npu) +
                          " out of range for a " +
                          std::to_string(_system.numNpus()) +
                          "-NPU system (numNpus)");
    if (_slotUsed[npu])
        throw ConfigError("NPU slot " + std::to_string(npu) +
                          " already has a workload");
    _slotUsed[npu] = true;

    Entry entry;
    entry.workload = std::move(workload);
    entry.npu = npu;
    entry.workload->bind(_system, npu);
    _entries.push_back(std::move(entry));
    return *_entries.back().workload;
}

Workload &
Scheduler::add(std::unique_ptr<Workload> workload)
{
    for (unsigned npu = 0; npu < _system.numNpus(); npu++) {
        if (!_slotUsed[npu])
            return add(std::move(workload), npu);
    }
    throw ConfigError("no free NPU slot for workload '" +
                      workload->name() + "' (raise numNpus)");
}

Workload &
Scheduler::workload(std::size_t idx) const
{
    NEUMMU_ASSERT(idx < _entries.size(), "workload index out of range");
    return *_entries[idx].workload;
}

SchedulerResult
Scheduler::run(Tick limit)
{
    NEUMMU_ASSERT(!_entries.empty() || _system.hasServingEngine(),
                  "scheduler has no workloads and serving is disabled");
    if (_system.hasServingEngine()) {
        // Open-loop: the arrival process generates traffic forever,
        // so the run is bounded by time, not by workload completion.
        NEUMMU_ASSERT(limit != maxTick,
                      "open-loop serving runs forever: pass a finite "
                      "cycle limit to Scheduler::run");
        _system.servingEngine().start();
    }

    for (Entry &entry : _entries) {
        entry.stallAtStart = _system.dma(entry.npu).stallCycles();
        // Completion bookkeeping lives in Workload::finish(); the
        // scheduler only needs done()/finishTick() afterwards.
        entry.workload->start([](Tick) {});
    }

    _system.run(limit);

    SchedulerResult result;
    result.totalCycles = _system.now();
    result.allDone = true;
    result.workloads.reserve(_entries.size());
    for (const Entry &entry : _entries) {
        const Workload &wl = *entry.workload;
        WorkloadRunStats ws;
        ws.name = wl.name();
        ws.npu = entry.npu;
        ws.done = wl.done();
        ws.finishTick = wl.done() ? wl.finishTick() : 0;
        ws.translations = wl.translationsIssued();
        ws.bytesFetched = wl.bytesFetched();
        ws.dmaStallCycles =
            _system.dma(entry.npu).stallCycles() - entry.stallAtStart;
        result.allDone = result.allDone && ws.done;
        result.workloads.push_back(std::move(ws));
    }
    return result;
}

} // namespace neummu
