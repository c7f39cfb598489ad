/**
 * @file
 * Declarative machine composition. A SystemConfig describes the whole
 * simulated machine -- N NPUs (tile pipeline + DMA), one translation
 * engine (any registered design, optionally fanned out through a
 * TranslationRouter when several NPUs share it, Section IV-B),
 * per-NPU local memory, and the host-owned page table / virtual
 * address space -- and System builds and owns that stack on one
 * EventQueue.
 *
 * Every experiment driver (dense DNNs, embedding gathers, the bench
 * grid, the examples) constructs its machine through this one layer,
 * so a new scenario is a config, not new wiring, and every component
 * registers its counters in one StatsRegistry with a single text/JSON
 * dump path.
 *
 * The whole machine runs on one serial EventQueue. Every NPU
 * translates through the one hub engine (the paper's shared MMU), so
 * the hub is a serialization point that a partitioned kernel could
 * not run in parallel.
 */

#ifndef NEUMMU_SYSTEM_SYSTEM_HH
#define NEUMMU_SYSTEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats_registry.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "mem/memory_model.hh"
#include "mmu/mmu_core.hh"
#include "mmu/mmu_engine.hh"
#include "mmu/nmt.hh"
#include "mmu/pom_tlb.hh"
#include "mmu/range_mmu.hh"
#include "mmu/translation_factory.hh"
#include "mmu/translation_router.hh"
#include "npu/dma_engine.hh"
#include "npu/npu_config.hh"
#include "npu/tile_pipeline.hh"
#include "serving/serve_config.hh"
#include "sim/event_queue.hh"
#include "system/paging_engine.hh"
#include "trace/trace.hh"
#include "vm/address_space.hh"
#include "vm/frame_allocator.hh"
#include "vm/page_table.hh"

namespace neummu {

namespace serving {
class ServingEngine;
} // namespace serving

namespace trace {
class TraceEngine;
} // namespace trace

/** Simulation-kernel knobs (ConfigBinder group "sim.*"). */
struct SimConfig
{
    /**
     * Host-side cycle attribution (see sim/profiler.hh): the event
     * queue carries a SimProfiler and the dump gains `prof.*` /
     * `fastpath.*` groups. Purely observational -- simulated results
     * are identical with it on or off -- but the extra stats groups
     * mean golden dumps are recorded with it off.
     */
    bool profile = false;
};

/**
 * Full machine description. Defaults reproduce the paper's baseline
 * single-NPU system (Table I) with a baseline IOMMU.
 */
struct SystemConfig
{
    /** Stats prefix for every component this system builds. */
    std::string name = "sys";

    /**
     * Root random seed. Every stochastic workload bound to this
     * system derives its own independent stream from this one value
     * (see Workload::derivedSeed), so multi-tenant runs are
     * reproducible regardless of scheduling order.
     */
    std::uint64_t seed = 1;

    // --- NPUs ------------------------------------------------------
    /** NPU count; > 1 shares the MMU through a TranslationRouter. */
    unsigned numNpus = 1;
    /** Core parameters, identical across NPUs (Table I). */
    NpuConfig npu{};
    /** Tile-buffer depth (2 = double buffering, Fig. 3). */
    unsigned bufferDepth = 2;

    // --- Translation -----------------------------------------------
    /**
     * The translation design, by its factory key (see
     * translation_factory.hh; "oracle", "iommu", "neummu", "range",
     * "pomtlb" or "nmt"). The zoo designs read their own sub-structs
     * below; the walker-core designs build one MmuCore from
     * resolvedMmuConfig().
     */
    std::string mmuDesign = "iommu";
    /**
     * Hand-edited walker-core settings. Empty builds the design's
     * canned MmuConfig at pageShift; a value replaces it as-is and
     * is what the mmu.* binder keys edit.
     */
    std::optional<MmuConfig> mmu;
    /** RangeMMU design knobs (mmuDesign "range" only). */
    RangeMmuConfig rangeMmu{};
    /** POM-TLB design knobs (mmuDesign "pomtlb" only). */
    PomTlbConfig pomTlb{};
    /** NMT design knobs (mmuDesign "nmt" only). */
    NmtConfig nmt{};
    /** Walker arbitration across NPUs (numNpus > 1 only). */
    RouterPolicy routerPolicy = RouterPolicy::Shared;

    // --- Memory system ---------------------------------------------
    /** Per-NPU local memory (HBM) timing. */
    MemoryConfig memory{};
    /**
     * SoC topology: all NPUs contend for one memory node (shared
     * system DRAM) instead of each owning a private HBM stack. Only
     * meaningful when numNpus > 1.
     */
    bool sharedMemory = false;
    /** Host DRAM capacity backing the page tables. */
    std::uint64_t hostDramBytes = 32 * GiB;
    /** Per-NPU HBM capacity backing the tensors. */
    std::uint64_t npuHbmBytes = 64 * GiB;

    // --- Page lifecycle / oversubscription -------------------------
    /**
     * Demand-paging / eviction engine. Disabled (the default) keeps
     * mappings immutable after setup, exactly the legacy behavior;
     * enabled, the System owns a PagingEngine that services faults
     * with timed evict+fetch and system-wide shootdown. The
     * residentLimitBytes knob below the workload footprint is how
     * oversubscription scenarios are built.
     */
    PagingConfig paging{};

    // --- Simulation kernel -----------------------------------------
    /** Kernel observability knobs. */
    SimConfig sim{};

    // --- Open-loop serving -----------------------------------------
    /**
     * Serving-mode knobs (ConfigBinder group "serve.*"). Disabled
     * (the default) keeps the System purely closed-loop; enabled, the
     * System owns a ServingEngine that generates open-loop request
     * arrivals over churning tenants.
     */
    serving::ServeConfig serve{};

    // --- Lifecycle tracing -----------------------------------------
    /**
     * Request-lifecycle tracing (ConfigBinder group "trace.*").
     * Disabled (the default) builds no trace machinery at all: the
     * instrumented hot paths carry one null-pointer test each and no
     * trace.* stats group is registered, so golden dumps are
     * untouched. Enabled, the System owns a TraceEngine recording
     * per-translation-request spans in simulated ticks -- see
     * trace/trace_engine.hh for the determinism story.
     */
    trace::TraceConfig trace{};

    // --- Page table / VA layout ------------------------------------
    /** Page size of the translation stream (12 or 21). */
    unsigned pageShift = smallPageShift;
    /** First virtual address handed out by the AddressSpace. */
    Addr vaBase = Addr(0x100) << 30;
    /** VA-layout scatter shift (see AddressSpace; 0 = packed). */
    unsigned vaScatterShift = 0;

    /**
     * The MmuConfig a walker-core system will instantiate: `mmu` when
     * it holds a value, else the design's canned config at pageShift.
     * @pre mmuDesign names a walker-core design -- the zoo designs
     *      have no MmuConfig; they are described by their sub-structs.
     */
    MmuConfig resolvedMmuConfig() const;
};

/**
 * Builds and owns the machine a SystemConfig describes. Construction
 * order (host node, page table, MMU, router, then per-NPU memory /
 * DMA / pipeline) is fixed, so identical configs produce identical
 * simulations. Handles stay valid for the System's lifetime.
 */
class System
{
  public:
    explicit System(SystemConfig cfg);
    System(const System &) = delete;
    System &operator=(const System &) = delete;
    ~System();

    const SystemConfig &config() const { return _cfg; }
    unsigned numNpus() const { return unsigned(_npus.size()); }

    // --- Simulation ------------------------------------------------
    /** The event queue every component runs on. */
    EventQueue &eventQueue() { return _eq; }
    /** Simulated time (only meaningful outside run()). */
    Tick now() const { return _eq.now(); }
    /** Drain the event queue (up to and including @p limit -- see
     *  EventQueue::run); returns final time. */
    Tick run(Tick limit = maxTick) { return _eq.run(limit); }
    /** Events executed so far. */
    std::uint64_t eventsExecuted() const { return _eq.eventsExecuted(); }
    /** Peak pending-event depth. */
    std::uint64_t peakQueueDepth() const { return _eq.peakDepth(); }

    // --- Kernel fast-path observability ----------------------------
    /** Event trains started. */
    std::uint64_t trainsStarted() const { return _eq.trainsStarted(); }
    /** Train sub-events run inline (no queue round-trip). */
    std::uint64_t trainSubEventsInlined() const
    {
        return _eq.trainSubEventsInlined();
    }
    /** Same-tick dispatch shortcuts taken. */
    std::uint64_t sameTickShortcuts() const
    {
        return _eq.sameTickShortcuts();
    }
    /** Host-cycle attribution (all zero when sim.profile=0). */
    SimProfiler mergedProfile();

    // Kept only so perfbench/perfbench.cc compiles; always zero.
    struct NoDomains
    {
        std::uint64_t windowsExecuted() const { return 0; }
        std::uint64_t messagesPosted() const { return 0; }
    };
    bool sharded() const { return false; }
    NoDomains domains() const { return {}; }

    // --- Virtual memory --------------------------------------------
    FrameAllocator &hostNode() { return _hostNode; }
    /** NPU @p npu's memory node (the one shared node under
     *  sharedMemory). */
    FrameAllocator &hbmNode(unsigned npu = 0);
    PageTable &pageTable() { return _pageTable; }
    AddressSpace &addressSpace() { return _vas; }

    // --- Translation -----------------------------------------------
    /** The translation engine the factory built for cfg.mmuDesign. */
    MmuEngine &mmu() { return *_mmu; }
    /**
     * Walker-core downcast for drivers that read MmuCore-only stats.
     * @pre config().mmuDesign names a walker-core design
     */
    MmuCore &mmuCore();
    bool hasRouter() const { return _router != nullptr; }
    /** @pre hasRouter() */
    TranslationRouter &router();
    /** NPU @p npu's translation port: a router port, or the MMU. */
    TranslationEngine &translationPort(unsigned npu = 0);

    // --- Per-NPU pipeline ------------------------------------------
    MemoryModel &memory(unsigned npu = 0);
    DmaEngine &dma(unsigned npu = 0);
    TilePipeline &pipeline(unsigned npu = 0);

    // --- Page lifecycle --------------------------------------------
    bool hasPagingEngine() const { return _paging != nullptr; }
    /** @pre hasPagingEngine() */
    PagingEngine &pagingEngine();

    /**
     * Tear down every mapped page of @p segment: pages the paging
     * engine manages go through its release path; the rest are
     * unmapped, shot down system-wide, and their frames returned to
     * NPU slot @p owner_slot's node. The tenant-retirement primitive;
     * the caller guarantees no translation activity is in flight on
     * the segment's pages.
     */
    void releaseSegment(const Segment &segment, unsigned owner_slot);

    // --- Open-loop serving -----------------------------------------
    bool hasServingEngine() const { return _serving != nullptr; }
    /** @pre hasServingEngine() */
    serving::ServingEngine &servingEngine();

    // --- Lifecycle tracing -----------------------------------------
    bool hasTraceEngine() const { return _trace != nullptr; }
    /** @pre hasTraceEngine() */
    trace::TraceEngine &traceEngine();

    // --- Statistics ------------------------------------------------
    /** Every component's counters, registered at construction. */
    stats::StatsRegistry &statsRegistry() { return _stats; }
    /** Refresh system-level scalars (simTicks, events) and dump. */
    void dumpStatsText(std::ostream &os);
    void dumpStatsJson(std::ostream &os);
    /** Refresh and write the JSON dump to @p path. */
    bool writeStatsJsonFile(const std::string &path);

  private:
    struct Npu
    {
        std::unique_ptr<FrameAllocator> hbm;
        std::unique_ptr<MemoryModel> mem;
        std::unique_ptr<DmaEngine> dma;
        std::unique_ptr<TilePipeline> pipeline;
    };

    Npu &npuAt(unsigned idx);
    void refreshSystemStats();
    /** Populate prof.* / fastpath.* groups (sim.profile only). */
    void refreshProfileStats();

    // The hot members come first and the cold config last, so their
    // placement (and the run time, which is sensitive to it) does not
    // shift whenever SystemConfig gains or loses a field.
    EventQueue _eq;
    FrameAllocator _hostNode;
    PageTable _pageTable;
    AddressSpace _vas;
    std::unique_ptr<MmuEngine> _mmu;
    std::unique_ptr<TranslationRouter> _router;
    std::unique_ptr<PagingEngine> _paging;
    std::unique_ptr<serving::ServingEngine> _serving;
    std::unique_ptr<trace::TraceEngine> _trace;
    std::unique_ptr<FrameAllocator> _sharedHbm;
    std::unique_ptr<MemoryModel> _sharedMem;
    std::vector<Npu> _npus;
    stats::StatsRegistry _stats;
    SystemConfig _cfg;
};

} // namespace neummu

#endif // NEUMMU_SYSTEM_SYSTEM_HH
