/**
 * @file
 * String-keyed translation-engine factory (the MMU design zoo),
 * mirroring the workload factory's shape: System asks for a design by
 * key, the registry builds the matching MmuEngine from the
 * SystemConfig's design sub-structs. New designs register one row in
 * the table; everything above (router, paging, serving,
 * ConfigBinder, sweeps) works unmodified.
 */

#ifndef NEUMMU_MMU_TRANSLATION_FACTORY_HH
#define NEUMMU_MMU_TRANSLATION_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "mmu/mmu_core.hh"
#include "mmu/mmu_engine.hh"
#include "sim/event_queue.hh"
#include "vm/page_table.hh"

namespace neummu {

struct SystemConfig;

/** One registered design row (for --list output and error text). */
struct TranslationDesignDoc
{
    /** Canonical factory key (mmu.design= / mmuKind= value). */
    const char *key;
    /** Display name (matches mmuKindName). */
    const char *title;
    const char *doc;
};

/** The registry, in canonical listing order. */
const std::vector<TranslationDesignDoc> &translationDesignTable();

/** Canonical keys, "oracle|iommu|neummu|custom|range|pomtlb|nmt". */
std::string translationDesignList();

/**
 * Parse a design key ("iommu"/"baseline" both name the baseline
 * IOMMU). @return False when @p name names no registered design.
 */
bool translationDesignFromName(const std::string &name, MmuKind &out);

/** The canonical factory key for @p kind. */
std::string translationDesignKey(MmuKind kind);

/**
 * Build the design @p kind selects. The walker-core kinds build an
 * MmuCore from cfg.resolvedMmuConfig(); the zoo kinds build their
 * engine from the matching cfg sub-struct (cfg.rangeMmu, cfg.pomTlb,
 * cfg.nmt) at cfg.pageShift.
 */
std::unique_ptr<MmuEngine>
makeTranslationEngine(MmuKind kind, std::string name, EventQueue &eq,
                      PageTable &pt, const SystemConfig &cfg);

} // namespace neummu

#endif // NEUMMU_MMU_TRANSLATION_FACTORY_HH
