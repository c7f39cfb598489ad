#include "workloads/synthetic_workload.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/text.hh"
#include "system/system.hh"

namespace neummu {

std::string
syntheticPatternName(SyntheticPattern pattern)
{
    switch (pattern) {
      case SyntheticPattern::Stride: return "stride";
      case SyntheticPattern::UniformRandom: return "uniform";
      case SyntheticPattern::HotSet: return "hotset";
      case SyntheticPattern::PointerChase: return "chase";
    }
    NEUMMU_PANIC("unknown synthetic pattern");
}

SyntheticPattern
syntheticPatternFromName(const std::string &name)
{
    const std::string want = lowered(name);
    for (const SyntheticPattern p :
         {SyntheticPattern::Stride, SyntheticPattern::UniformRandom,
          SyntheticPattern::HotSet, SyntheticPattern::PointerChase})
        if (want == syntheticPatternName(p))
            return p;
    throw WorkloadError("unknown synthetic pattern '" + name +
                        "' (stride|uniform|hotset|chase)");
}

SyntheticWorkload::SyntheticWorkload(SyntheticWorkloadConfig cfg)
    : Workload("synthetic." + syntheticPatternName(cfg.pattern)),
      _cfg(std::move(cfg))
{
    if (_cfg.footprintBytes == 0)
        throw WorkloadError("synthetic footprint= must be > 0");
    if (_cfg.accessBytes == 0)
        throw WorkloadError("synthetic bytes= must be > 0");
    if (_cfg.accesses == 0)
        throw WorkloadError("synthetic accesses= must be > 0");
    if (_cfg.batchLength == 0)
        throw WorkloadError("synthetic batch= must be > 0");
    if (_cfg.hotFraction <= 0.0 || _cfg.hotFraction > 1.0)
        throw WorkloadError("synthetic hot= must be in (0, 1], got " +
                            std::to_string(_cfg.hotFraction));
    if (_cfg.hotProbability < 0.0 || _cfg.hotProbability > 1.0)
        throw WorkloadError("synthetic phot= must be in [0, 1], got " +
                            std::to_string(_cfg.hotProbability));
    if (_cfg.pattern == SyntheticPattern::PointerChase)
        _cfg.batchLength = 1; // dependent accesses: no MLP
    _cfg.accessBytes =
        std::min(_cfg.accessBytes, _cfg.footprintBytes);
}

void
SyntheticWorkload::onBind()
{
    System &sys = system();
    if (_cfg.demandPaged) {
        if (!sys.hasPagingEngine())
            throw WorkloadError("synthetic paged=1 needs "
                                "paging.enabled=1");
        _segment = sys.addressSpace().allocateUnbacked(
            name() + ".footprint", _cfg.footprintBytes,
            sys.config().pageShift);
    } else {
        _segment = sys.addressSpace().allocateBacked(
            name() + ".footprint", _cfg.footprintBytes,
            sys.hbmNode(npuSlot()), sys.config().pageShift);
    }
    _rng = Rng(_cfg.seed ? _cfg.seed : derivedSeed());

    stats::Group &g = stats();
    g.scalar("accesses").set(double(_cfg.accesses));
    g.scalar("footprintBytes").set(double(_cfg.footprintBytes));
    _batchesIssued = &g.scalar("batchesIssued");
}

Addr
SyntheticWorkload::nextVa()
{
    // Offsets stay inside [0, footprint - accessBytes] so every
    // access lands fully within the backed segment.
    const std::uint64_t span =
        _segment.bytes - _cfg.accessBytes + 1;
    switch (_cfg.pattern) {
      case SyntheticPattern::Stride: {
        const std::uint64_t off =
            (_issued * _cfg.strideBytes) % span;
        return _segment.base + off;
      }
      case SyntheticPattern::UniformRandom:
        return _segment.base + _rng.range(span);
      case SyntheticPattern::HotSet: {
        const std::uint64_t hot_span = std::max<std::uint64_t>(
            1, std::uint64_t(double(span) * _cfg.hotFraction));
        if (_rng.uniform() < _cfg.hotProbability)
            return _segment.base + _rng.range(hot_span);
        return _segment.base + _rng.range(span);
      }
      case SyntheticPattern::PointerChase: {
        // A deterministic random walk: the next pointer is a
        // Rng-drawn cell, serialized one access at a time.
        _chaseCursor = _rng.range(span);
        return _segment.base + _chaseCursor;
      }
    }
    NEUMMU_PANIC("unknown synthetic pattern");
}

void
SyntheticWorkload::onStart()
{
    issueNextBatch();
}

void
SyntheticWorkload::issueNextBatch()
{
    if (_issued >= _cfg.accesses) {
        finish(now());
        return;
    }

    const std::uint64_t remaining = _cfg.accesses - _issued;
    const std::uint64_t batch =
        std::min<std::uint64_t>(remaining, _cfg.batchLength);
    _batch.clear();
    _batch.reserve(batch);
    for (std::uint64_t i = 0; i < batch; i++) {
        _batch.push_back(VaRun{nextVa(), _cfg.accessBytes});
        _issued++;
    }

    system().dma(npuSlot()).fetch(std::move(_batch), [this](Tick) {
        *_batchesIssued += 1.0;
        if (_cfg.thinkCycles > 0 && _issued < _cfg.accesses) {
            eventQueue().scheduleIn(
                _cfg.thinkCycles, [this] { issueNextBatch(); });
        } else {
            issueNextBatch();
        }
    });
}

} // namespace neummu
