#include "mem/memory_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace neummu {

MemoryModel::MemoryModel(std::string name, MemoryConfig cfg)
    : _cfg(cfg), _stats(std::move(name)),
      _sAccesses(_stats.scalar("accesses")),
      _sBytesRead(_stats.scalar("bytesRead")),
      _sBytesWritten(_stats.scalar("bytesWritten"))
{
    if (cfg.channels == 0)
        throw ConfigError(_stats.name() + ": memory.channels must be >= 1");
    if (!(cfg.bytesPerCycle > 0.0))
        throw ConfigError(_stats.name() +
                          ": memory.bytesPerCycle must be > 0");
    if (cfg.interleaveBytes == 0)
        throw ConfigError(_stats.name() +
                          ": memory.interleaveBytes must be > 0");
    _bytesPerCyclePerChannel = cfg.bytesPerCycle / double(cfg.channels);
    _channelFree.assign(cfg.channels, 0.0);
}

Tick
MemoryModel::access(Tick now, Addr pa, std::uint64_t bytes, bool is_write)
{
    NEUMMU_ASSERT(bytes > 0, "zero-byte memory access");

    (is_write ? _sBytesWritten : _sBytesRead) += double(bytes);
    ++_sAccesses;

    Tick last_done = now;
    Addr cursor = pa;
    std::uint64_t remaining = bytes;
    while (remaining > 0) {
        const Addr chunk_end =
            (cursor / _cfg.interleaveBytes + 1) * _cfg.interleaveBytes;
        const std::uint64_t chunk =
            std::min<std::uint64_t>(remaining, chunk_end - cursor);
        const unsigned ch =
            unsigned((cursor / _cfg.interleaveBytes) % _cfg.channels);

        const double start = std::max(double(now), _channelFree[ch]);
        const double busy = double(chunk) / _bytesPerCyclePerChannel;
        _channelFree[ch] = start + busy;
        last_done = std::max(
            last_done,
            Tick(start + busy + 0.999999) + _cfg.accessLatency);

        cursor += chunk;
        remaining -= chunk;
    }
    return last_done;
}

Tick
MemoryModel::earliestFree() const
{
    return Tick(
        *std::min_element(_channelFree.begin(), _channelFree.end()));
}

void
MemoryModel::reset()
{
    std::fill(_channelFree.begin(), _channelFree.end(), 0.0);
}

} // namespace neummu
