#include "mmu/translation_factory.hh"

#include "common/logging.hh"
#include "mmu/nmt.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/range_mmu.hh"
#include "system/system.hh"

namespace neummu {

namespace {

/** The walker-core builder: one MmuCore from cfg.resolvedMmuConfig(). */
std::unique_ptr<MmuEngine>
buildMmuCore(std::string name, EventQueue &eq, PageTable &pt,
             const SystemConfig &cfg)
{
    const MmuConfig mmu_cfg = cfg.resolvedMmuConfig();
    if (mmu_cfg.pageShift != cfg.pageShift)
        throw ConfigError("MMU page size (shift " +
                          std::to_string(mmu_cfg.pageShift) +
                          ") and system pageShift " +
                          std::to_string(cfg.pageShift) + " must agree");
    return std::make_unique<MmuCore>(std::move(name), eq, pt, mmu_cfg);
}

} // namespace

const std::vector<TranslationDesign> &
translationDesignTable()
{
    static const std::vector<TranslationDesign> table{
        {"oracle", "Oracle",
         "every translation resolves instantly (normalization "
         "baseline)",
         oracleMmuConfig, buildMmuCore},
        {"iommu", "Baseline",
         "IOTLB + 8 blocking page-table walkers (Table I baseline)",
         baselineIommuConfig, buildMmuCore},
        {"neummu", "NeuMMU",
         "PTS + per-PTW PRMB + 128 walkers + TPreg (the paper's "
         "design)",
         neuMmuConfig, buildMmuCore},
        {"range", "RangeMMU",
         "range TLB over contiguous VA->PA runs, eager range "
         "construction (RMM, ISCA 2015)",
         nullptr,
         [](std::string name, EventQueue &eq, PageTable &pt,
            const SystemConfig &cfg) -> std::unique_ptr<MmuEngine> {
             return std::make_unique<RangeMmu>(std::move(name), eq, pt,
                                               cfg.pageShift,
                                               cfg.rangeMmu);
         }},
        {"pomtlb", "PomTlb",
         "part-of-memory TLB: huge in-DRAM level under a small L1 "
         "(Ryoo et al., ISCA 2017)",
         nullptr,
         [](std::string name, EventQueue &eq, PageTable &pt,
            const SystemConfig &cfg) -> std::unique_ptr<MmuEngine> {
             return std::make_unique<PomTlb>(std::move(name), eq, pt,
                                             cfg.pageShift, cfg.pomTlb);
         }},
        {"nmt", "NMT",
         "near-memory translation: flat segment index at the memory "
         "side (Picorel et al.)",
         nullptr,
         [](std::string name, EventQueue &eq, PageTable &pt,
            const SystemConfig &cfg) -> std::unique_ptr<MmuEngine> {
             return std::make_unique<Nmt>(std::move(name), eq, pt,
                                          cfg.pageShift, cfg.nmt);
         }},
    };
    return table;
}

std::string
translationDesignList()
{
    std::string out;
    for (const TranslationDesign &design : translationDesignTable()) {
        if (!out.empty())
            out += "|";
        out += design.key;
    }
    return out;
}

const TranslationDesign *
findTranslationDesign(const std::string &key)
{
    for (const TranslationDesign &design : translationDesignTable()) {
        if (key == design.key)
            return &design;
    }
    return nullptr;
}

const TranslationDesign &
translationDesign(const std::string &key)
{
    const TranslationDesign *design = findTranslationDesign(key);
    if (!design)
        NEUMMU_PANIC("unknown translation design '" + key +
                     "' (valid: " + translationDesignList() + ")");
    return *design;
}

} // namespace neummu
