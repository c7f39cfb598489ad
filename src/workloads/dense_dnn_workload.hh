/**
 * @file
 * Dense-DNN traffic source (Sections III-IV, VI-A/B/C): tiles one of
 * the paper's six workloads and streams the tile fetches through the
 * bound NPU slot's tile pipeline, layer by layer. Every dense
 * experiment (the bench grids, the examples, the `dense:` factory
 * spec) places one on a System slot through the Scheduler, where it
 * co-runs with any other Workload.
 */

#ifndef NEUMMU_WORKLOADS_DENSE_DNN_WORKLOAD_HH
#define NEUMMU_WORKLOADS_DENSE_DNN_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "vm/address_space.hh"
#include "workloads/models.hh"
#include "workloads/tiler.hh"
#include "workloads/workload.hh"

namespace neummu {

/** Per-layer timing record. */
struct LayerResult
{
    std::string name;
    Tick cycles = 0;
    std::uint64_t tiles = 0;
    std::uint64_t translations = 0;
};

/** Configuration of one dense-DNN traffic source. */
struct DenseDnnWorkloadConfig
{
    WorkloadId workload = WorkloadId::CNN1;
    unsigned batch = 1;
    /** Override the layer list (empty = full workload). */
    std::vector<LayerSpec> layerOverride;
    /** Optional observation hook for issued translations (Fig. 7). */
    std::function<void(Tick, Addr)> translationHook;
};

/**
 * Streams a dense DNN through the bound slot: bind() lays out every
 * layer's IA/W segments in the System's address space (backed from
 * the slot's HBM node); each layer's tiles run through the slot's
 * TilePipeline, chained event-driven so concurrent tenants interleave
 * on the shared MMU.
 */
class DenseDnnWorkload : public Workload
{
  public:
    explicit DenseDnnWorkload(DenseDnnWorkloadConfig cfg);

    const DenseDnnWorkloadConfig &config() const { return _cfg; }

    /** Per-layer results, complete once done(). */
    const std::vector<LayerResult> &layers() const { return _layers; }

  protected:
    void onBind() override;
    void onStart() override;

  private:
    void startLayer(std::size_t index);

    DenseDnnWorkloadConfig _cfg;
    DnnModel _model;
    std::vector<std::pair<Segment, Segment>> _layerSegs;
    LayerTiling _tiling;
    std::uint64_t _translationsBeforeLayer = 0;
    std::vector<LayerResult> _layers;
};

} // namespace neummu

#endif // NEUMMU_WORKLOADS_DENSE_DNN_WORKLOAD_HH
