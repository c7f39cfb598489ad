#include "mem/interconnect.hh"

#include <algorithm>

#include "common/logging.hh"

namespace neummu {

LinkConfig
pcieLinkConfig()
{
    // 16 GB/s at 1 GHz == 16 bytes/cycle (Table I).
    return LinkConfig{16.0, 150};
}

LinkConfig
npuLinkConfig()
{
    // 160 GB/s NPU<->NPU interconnect (Table I).
    return LinkConfig{160.0, 150};
}

Link::Link(std::string name, LinkConfig cfg)
    : _cfg(cfg), _stats(std::move(name)),
      _sBytesTransferred(_stats.scalar("bytesTransferred")),
      _sTransfers(_stats.scalar("transfers")),
      _sAccesses(_stats.scalar("accesses"))
{
    if (!(cfg.bytesPerCycle > 0.0))
        throw ConfigError(_stats.name() + ": link bytesPerCycle must be > 0");
}

Tick
Link::transfer(Tick now, std::uint64_t bytes)
{
    const Tick start = std::max(now, _free);
    const Tick busy = std::max<Tick>(
        1, Tick(double(bytes) / _cfg.bytesPerCycle + 0.999999));
    _free = start + busy;
    _sBytesTransferred += double(bytes);
    ++_sTransfers;
    return start + busy + _cfg.latency;
}

Tick
Link::access(Tick now, std::uint64_t bytes)
{
    // Round trip: request goes out (latency), data serializes back.
    const Tick start = std::max(now, _free);
    const Tick busy = std::max<Tick>(
        1, Tick(double(bytes) / _cfg.bytesPerCycle + 0.999999));
    _free = start + busy;
    _sBytesTransferred += double(bytes);
    ++_sAccesses;
    return start + busy + 2 * _cfg.latency;
}

void
Link::reset()
{
    _free = 0;
}

} // namespace neummu
