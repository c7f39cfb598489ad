#include "workloads/request_model.hh"

#include "common/text.hh"
#include "workloads/workload_factory.hh"

namespace neummu {

namespace {

void
validate(const RequestModel &m)
{
    if (m.accessBytes == 0)
        throw WorkloadError("request model bytes must be > 0");
    if (m.accessesPerRequest == 0)
        throw WorkloadError("request model accesses must be > 0");
    if (m.strideBytes == 0)
        throw WorkloadError("request model stride must be > 0");
    if (m.footprintBytes < m.accessBytes)
        throw WorkloadError(
            "request model footprint smaller than one access");
}

} // namespace

RequestModel
requestModelFromSpecChecked(const std::string &text)
{
    WorkloadSpec spec = parseWorkloadSpec(text);
    RequestModel m;
    if (spec.kind == "dense") {
        m.pattern = SyntheticPattern::Stride;
        m.footprintBytes = 8 * MiB;
        m.accessesPerRequest = 128;
        m.accessBytes = 4 * KiB;
        m.strideBytes = 4 * KiB;
    } else if (spec.kind == "embedding") {
        m.pattern = SyntheticPattern::UniformRandom;
        m.footprintBytes = 4 * MiB;
        m.accessesPerRequest = 64;
        m.accessBytes = 512;
    } else if (spec.kind == "synthetic") {
        // A request is one batched DMA fetch: there is no
        // dependent-access chain inside it to chase.
        m.pattern =
            syntheticPatternFromName(spec.take("pattern", "stride"));
        if (m.pattern == SyntheticPattern::PointerChase)
            throw WorkloadError("request model pattern 'chase' is not "
                                "supported (stride|uniform|hotset)");
        m.footprintBytes = 4 * MiB;
        m.accessesPerRequest = 64;
        m.accessBytes = 1 * KiB;
    } else {
        throw WorkloadError("unknown request model kind '" + spec.kind +
                            "'; valid kinds:\n  " +
                            joined(listRequestModels(), "\n  "));
    }

    m.footprintBytes = spec.takeUint("footprint", m.footprintBytes);
    m.accessesPerRequest =
        spec.takeUint("accesses", m.accessesPerRequest);
    m.accessBytes = spec.takeUint("bytes", m.accessBytes);
    if (spec.kind != "embedding")
        m.strideBytes = spec.takeUint("stride", m.strideBytes);
    if (spec.kind == "synthetic") {
        m.hotFraction = spec.takeDouble("hot", m.hotFraction);
        m.hotProbability = spec.takeDouble("phot", m.hotProbability);
    }
    spec.rejectLeftovers("request model");
    validate(m);
    return m;
}

std::vector<std::string>
listRequestModels()
{
    return {
        "dense:footprint=SZ,accesses=N,bytes=SZ,stride=SZ",
        "embedding:footprint=SZ,accesses=N,bytes=SZ",
        "synthetic:pattern=stride|uniform|hotset,footprint=SZ,"
        "accesses=N,bytes=SZ,stride=SZ,hot=F,phot=F",
    };
}

void
buildRequestRuns(const RequestModel &model, const Segment &segment,
                 std::uint64_t req_index, Rng &rng,
                 std::vector<VaRun> &out)
{
    out.clear();
    out.reserve(model.accessesPerRequest);
    const std::uint64_t span =
        segment.bytes - model.accessBytes + 1;
    const std::uint64_t hot_bytes = std::min<std::uint64_t>(
        span,
        std::max<std::uint64_t>(
            model.accessBytes,
            std::uint64_t(model.hotFraction *
                          double(segment.bytes))));
    for (std::uint64_t i = 0; i < model.accessesPerRequest; i++) {
        std::uint64_t off = 0;
        switch (model.pattern) {
          case SyntheticPattern::Stride:
            off = ((req_index * model.accessesPerRequest + i) *
                   model.strideBytes) %
                  span;
            break;
          case SyntheticPattern::UniformRandom:
          case SyntheticPattern::PointerChase:
            off = rng.range(span);
            break;
          case SyntheticPattern::HotSet:
            if (rng.uniform() < model.hotProbability ||
                hot_bytes >= span) {
                off = rng.range(hot_bytes);
            } else {
                off = hot_bytes + rng.range(span - hot_bytes);
            }
            break;
        }
        out.push_back({segment.base + off, model.accessBytes});
    }
}

} // namespace neummu
