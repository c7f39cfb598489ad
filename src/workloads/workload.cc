#include "workloads/workload.hh"

#include "common/logging.hh"
#include "common/random.hh"
#include "system/system.hh"

namespace neummu {

void
Workload::bind(System &system, unsigned npu)
{
    NEUMMU_ASSERT(!_system, "workload '" + _name + "' already bound");
    NEUMMU_ASSERT(npu < system.numNpus(),
                  "workload '" + _name + "' bound to NPU slot " +
                      std::to_string(npu) + " of a " +
                      std::to_string(system.numNpus()) + "-NPU system");
    _system = &system;
    _npu = npu;
    stats(); // create the group now so dump order follows bind order
    onBind();
}

void
Workload::start(DoneCallback done)
{
    NEUMMU_ASSERT(_system, "workload '" + _name + "' started unbound");
    NEUMMU_ASSERT(!_started, "workload '" + _name + "' started twice");
    _started = true;
    _done = std::move(done);
    _startTick = _system->now();
    _translationsAtStart = _system->dma(_npu).translationsIssued();
    _bytesAtStart = _system->dma(_npu).bytesFetched();
    onStart();
}

System &
Workload::system() const
{
    NEUMMU_ASSERT(_system, "workload '" + _name + "' is not bound");
    return *_system;
}

EventQueue &
Workload::eventQueue() const
{
    return system().eventQueue();
}

Tick
Workload::now() const
{
    return system().now();
}

stats::Group &
Workload::stats() const
{
    System &sys = system();
    const std::string &sys_name = sys.config().name;
    const std::string prefix =
        (sys_name.empty() ? std::string() : sys_name + ".") + "wl" +
        std::to_string(_npu) + "." + _name;
    return sys.statsRegistry().group(prefix);
}

std::uint64_t
Workload::derivedSeed() const
{
    return deriveSeed(system().config().seed,
                      (std::uint64_t(_npu) << 32) ^ hashString(_name));
}

std::uint64_t
Workload::translationsIssued() const
{
    return system().dma(_npu).translationsIssued() -
           _translationsAtStart;
}

std::uint64_t
Workload::bytesFetched() const
{
    return system().dma(_npu).bytesFetched() - _bytesAtStart;
}

void
Workload::finish(Tick at)
{
    NEUMMU_ASSERT(_started, "workload '" + _name + "' finished unstarted");
    NEUMMU_ASSERT(!_finished, "workload '" + _name + "' finished twice");
    _finished = true;
    _finishTick = at;

    stats::Group &g = stats();
    g.scalar("startTick").set(double(_startTick));
    g.scalar("finishTick").set(double(at));
    g.scalar("runCycles").set(double(at - _startTick));
    g.scalar("translations").set(double(translationsIssued()));
    g.scalar("bytesFetched").set(double(bytesFetched()));

    if (_done) {
        auto done = std::move(_done);
        _done = nullptr;
        done(at);
    }
}

} // namespace neummu
