#include "workloads/embedding.hh"

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace neummu {

std::uint64_t
EmbeddingModelSpec::lookupsPerSample() const
{
    std::uint64_t n = 0;
    for (const auto &t : tables)
        n += t.lookupsPerSample;
    return n;
}

std::uint64_t
EmbeddingModelSpec::embeddingBytesPerSample() const
{
    std::uint64_t b = 0;
    for (const auto &t : tables)
        b += std::uint64_t(t.lookupsPerSample) * t.rowBytes();
    return b;
}

std::uint64_t
EmbeddingModelSpec::totalTableBytes() const
{
    std::uint64_t b = 0;
    for (const auto &t : tables)
        b += t.bytes();
    return b;
}

EmbeddingModelSpec
makeNcf()
{
    EmbeddingModelSpec spec;
    spec.name = "NCF";
    // Candidate scoring: 1 user gather + one gather per candidate
    // item, in each of the two towers (GMF and MLP).
    constexpr unsigned candidates = 128;
    spec.tables = {
        {"user.gmf", 100'000'000ull, 64, 4, 1},
        {"item.gmf", 10'000'000ull, 64, 4, candidates},
        {"user.mlp", 100'000'000ull, 64, 4, 1},
        {"item.mlp", 10'000'000ull, 64, 4, candidates},
    };
    // MLP tower on concat(user, item) = 128 features, per candidate;
    // the final layer fuses the GMF and MLP towers.
    spec.topMlp = {
        {candidates, 128, 256},
        {candidates, 256, 128},
        {candidates, 128, 64},
        {candidates, 128, 1},
    };
    // GMF element-wise product: read both 64-float vectors, write one.
    spec.interactionBytesPerSample =
        std::uint64_t(candidates) * 3 * 64 * 4;
    return spec;
}

EmbeddingModelSpec
makeDlrm()
{
    EmbeddingModelSpec spec;
    spec.name = "DLRM";
    // 26 sparse features (Criteo-style), multi-hot pooled gathers.
    constexpr unsigned num_tables = 26;
    constexpr unsigned pooling = 10;
    for (unsigned t = 0; t < num_tables; t++) {
        spec.tables.push_back(EmbeddingTableSpec{
            "table" + std::to_string(t), 10'000'000ull, 64, 4, pooling});
    }
    spec.bottomMlp = {
        {1, 13, 512},
        {1, 512, 256},
        {1, 256, 64},
    };
    // Pairwise dot-product interaction of 27 vectors (26 pooled
    // embeddings + bottom-MLP output) -> 351 + 64 features.
    spec.topMlp = {
        {1, 415, 512},
        {1, 512, 256},
        {1, 256, 1},
    };
    spec.interactionBytesPerSample = (26ull + 1) * 64 * 4 * 2;
    return spec;
}

std::vector<EmbeddingLookup>
generateLookups(const EmbeddingModelSpec &spec, unsigned batch, Rng &rng)
{
    if (batch < 1)
        throw WorkloadError("embedding batch= must be >= 1");
    std::vector<EmbeddingLookup> lookups;
    lookups.reserve(std::size_t(batch) * spec.lookupsPerSample());
    for (unsigned s = 0; s < batch; s++) {
        for (unsigned t = 0; t < spec.tables.size(); t++) {
            const auto &table = spec.tables[t];
            for (unsigned l = 0; l < table.lookupsPerSample; l++)
                lookups.push_back(
                    EmbeddingLookup{t, rng.range(table.rows)});
        }
    }
    return lookups;
}

} // namespace neummu
