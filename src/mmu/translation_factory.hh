/**
 * @file
 * String-keyed translation-engine factory (the MMU design zoo),
 * mirroring the workload factory's shape. The design table is the one
 * place a design is named: its key is the design's only identity
 * (SystemConfig::mmuDesign, the mmu.design= binder value), and its row
 * carries the display title, the canned walker-core config (if any)
 * and the builder. A new design registers one row; everything above
 * (router, paging, serving, ConfigBinder, sweeps) works unmodified.
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

/** One registered translation design. */
struct TranslationDesign
{
    /** Factory key: the SystemConfig::mmuDesign / mmu.design= value. */
    const char *key;
    /** Display name in printed tables and golden file stems. */
    const char *title;
    const char *doc;
    /**
     * The canned MmuConfig at a page shift. Set exactly for the
     * walker-core designs one MmuCore covers (the mmu.* binder keys
     * edit this space); null for the zoo designs, which read their
     * own SystemConfig sub-struct instead.
     */
    MmuConfig (*mmuConfig)(unsigned page_shift);
    /** Build the engine @p cfg describes. */
    std::unique_ptr<MmuEngine> (*build)(std::string name, EventQueue &eq,
                                        PageTable &pt,
                                        const SystemConfig &cfg);
};

/** The registry, in canonical listing order. */
const std::vector<TranslationDesign> &translationDesignTable();

/** Every key, "oracle|iommu|neummu|range|pomtlb|nmt". */
std::string translationDesignList();

/** The row registered under @p key, or null when there is none. */
const TranslationDesign *findTranslationDesign(const std::string &key);

/**
 * The row registered under @p key.
 * @pre @p key names a registered design (panics otherwise).
 */
const TranslationDesign &translationDesign(const std::string &key);

} // namespace neummu

#endif // NEUMMU_MMU_TRANSLATION_FACTORY_HH
