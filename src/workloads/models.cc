#include "workloads/models.hh"

#include "common/logging.hh"
#include "workloads/workload.hh"

namespace neummu {

namespace {

LayerSpec
convLayer(const std::string &name, unsigned batch, unsigned cin,
          unsigned h, unsigned w, unsigned cout, unsigned r, unsigned s,
          unsigned stride, unsigned pad)
{
    LayerSpec layer;
    layer.name = name;
    layer.kind = LayerKind::Conv;
    layer.conv = ConvParams{cin, h, w, cout, r, s, stride, pad};
    layer.batch = batch;
    return layer;
}

LayerSpec
gemmLayer(const std::string &name, std::uint64_t m, std::uint64_t k,
          std::uint64_t n, unsigned repeat = 1)
{
    LayerSpec layer;
    layer.name = name;
    layer.kind = LayerKind::Gemm;
    layer.gemm = GemmDims{m, k, n};
    layer.repeat = repeat;
    layer.batch = unsigned(m);
    return layer;
}

/** One GoogLeNet inception module: six convolution kernels. */
void
addInception(DnnModel &wl, const std::string &name, unsigned batch,
             unsigned cin, unsigned hw, unsigned n1x1, unsigned n3x3red,
             unsigned n3x3, unsigned n5x5red, unsigned n5x5,
             unsigned pool_proj)
{
    wl.layers.push_back(
        convLayer(name + ".1x1", batch, cin, hw, hw, n1x1, 1, 1, 1, 0));
    wl.layers.push_back(convLayer(name + ".3x3red", batch, cin, hw, hw,
                                  n3x3red, 1, 1, 1, 0));
    wl.layers.push_back(convLayer(name + ".3x3", batch, n3x3red, hw, hw,
                                  n3x3, 3, 3, 1, 1));
    wl.layers.push_back(convLayer(name + ".5x5red", batch, cin, hw, hw,
                                  n5x5red, 1, 1, 1, 0));
    wl.layers.push_back(convLayer(name + ".5x5", batch, n5x5red, hw, hw,
                                  n5x5, 5, 5, 1, 2));
    wl.layers.push_back(convLayer(name + ".pool_proj", batch, cin, hw,
                                  hw, pool_proj, 1, 1, 1, 0));
}

/** One ResNet bottleneck block (1x1 -> 3x3 -> 1x1 [+ projection]). */
void
addBottleneck(DnnModel &wl, const std::string &name, unsigned batch,
              unsigned cin, unsigned hw_in, unsigned mid, unsigned cout,
              unsigned stride, bool project)
{
    const unsigned hw_out = (stride == 1) ? hw_in : hw_in / stride;
    wl.layers.push_back(
        convLayer(name + ".1x1a", batch, cin, hw_in, hw_in, mid, 1, 1, 1,
                  0));
    wl.layers.push_back(convLayer(name + ".3x3", batch, mid, hw_in,
                                  hw_in, mid, 3, 3, stride, 1));
    wl.layers.push_back(convLayer(name + ".1x1b", batch, mid, hw_out,
                                  hw_out, cout, 1, 1, 1, 0));
    if (project) {
        wl.layers.push_back(convLayer(name + ".proj", batch, cin, hw_in,
                                      hw_in, cout, 1, 1, stride, 0));
    }
}

DnnModel
makeAlexNet(unsigned batch)
{
    DnnModel wl{"CNN-1", {}};
    wl.layers.push_back(
        convLayer("conv1", batch, 3, 227, 227, 96, 11, 11, 4, 0));
    wl.layers.push_back(
        convLayer("conv2", batch, 96, 27, 27, 256, 5, 5, 1, 2));
    wl.layers.push_back(
        convLayer("conv3", batch, 256, 13, 13, 384, 3, 3, 1, 1));
    wl.layers.push_back(
        convLayer("conv4", batch, 384, 13, 13, 384, 3, 3, 1, 1));
    wl.layers.push_back(
        convLayer("conv5", batch, 384, 13, 13, 256, 3, 3, 1, 1));
    wl.layers.push_back(gemmLayer("fc6", batch, 9216, 4096));
    wl.layers.push_back(gemmLayer("fc7", batch, 4096, 4096));
    wl.layers.push_back(gemmLayer("fc8", batch, 4096, 1000));
    return wl;
}

DnnModel
makeGoogLeNet(unsigned batch)
{
    DnnModel wl{"CNN-2", {}};
    wl.layers.push_back(
        convLayer("conv1", batch, 3, 224, 224, 64, 7, 7, 2, 3));
    wl.layers.push_back(
        convLayer("conv2red", batch, 64, 56, 56, 64, 1, 1, 1, 0));
    wl.layers.push_back(
        convLayer("conv2", batch, 64, 56, 56, 192, 3, 3, 1, 1));
    addInception(wl, "3a", batch, 192, 28, 64, 96, 128, 16, 32, 32);
    addInception(wl, "3b", batch, 256, 28, 128, 128, 192, 32, 96, 64);
    addInception(wl, "4a", batch, 480, 14, 192, 96, 208, 16, 48, 64);
    addInception(wl, "4b", batch, 512, 14, 160, 112, 224, 24, 64, 64);
    addInception(wl, "4c", batch, 512, 14, 128, 128, 256, 24, 64, 64);
    addInception(wl, "4d", batch, 512, 14, 112, 144, 288, 32, 64, 64);
    addInception(wl, "4e", batch, 528, 14, 256, 160, 320, 32, 128, 128);
    addInception(wl, "5a", batch, 832, 7, 256, 160, 320, 32, 128, 128);
    addInception(wl, "5b", batch, 832, 7, 384, 192, 384, 48, 128, 128);
    wl.layers.push_back(gemmLayer("fc", batch, 1024, 1000));
    return wl;
}

DnnModel
makeResNet50(unsigned batch)
{
    DnnModel wl{"CNN-3", {}};
    wl.layers.push_back(
        convLayer("conv1", batch, 3, 224, 224, 64, 7, 7, 2, 3));

    struct Stage
    {
        const char *name;
        unsigned blocks;
        unsigned mid;
        unsigned cout;
        unsigned hw;
        unsigned first_stride;
    };
    const Stage stages[] = {
        {"conv2", 3, 64, 256, 56, 1},
        {"conv3", 4, 128, 512, 56, 2},
        {"conv4", 6, 256, 1024, 28, 2},
        {"conv5", 3, 512, 2048, 14, 2},
    };
    unsigned cin = 64;
    for (const Stage &st : stages) {
        unsigned hw = st.hw;
        for (unsigned b = 0; b < st.blocks; b++) {
            const unsigned stride = (b == 0) ? st.first_stride : 1;
            addBottleneck(wl,
                          std::string(st.name) + "_" +
                              std::to_string(b + 1),
                          batch, cin, hw, st.mid, st.cout, stride,
                          b == 0);
            if (b == 0)
                hw /= st.first_stride;
            cin = st.cout;
        }
    }
    wl.layers.push_back(gemmLayer("fc", batch, 2048, 1000));
    return wl;
}

/**
 * DeepBench-style recurrent kernels. Per timestep the cell computes
 * one GEMM over the concatenated [input, hidden] vector: vanilla RNN
 * produces h outputs, an LSTM produces 4h gate pre-activations.
 */
DnnModel
makeRnn(const std::string &name, unsigned batch, unsigned hidden,
        unsigned gates)
{
    DnnModel wl{name, {}};
    wl.layers.push_back(gemmLayer("step", batch, 2ull * hidden,
                                  std::uint64_t(gates) * hidden,
                                  rnnSimulatedTimesteps));
    return wl;
}

} // namespace

const std::vector<WorkloadId> &
allWorkloads()
{
    static const std::vector<WorkloadId> ids = {
        WorkloadId::CNN1, WorkloadId::CNN2, WorkloadId::CNN3,
        WorkloadId::RNN1, WorkloadId::RNN2, WorkloadId::RNN3,
    };
    return ids;
}

std::string
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::CNN1: return "CNN-1";
      case WorkloadId::CNN2: return "CNN-2";
      case WorkloadId::CNN3: return "CNN-3";
      case WorkloadId::RNN1: return "RNN-1";
      case WorkloadId::RNN2: return "RNN-2";
      case WorkloadId::RNN3: return "RNN-3";
    }
    NEUMMU_PANIC("unknown workload id");
}

DnnModel
makeWorkload(WorkloadId id, unsigned batch)
{
    if (batch < 1)
        throw WorkloadError("dense batch= must be >= 1");
    switch (id) {
      case WorkloadId::CNN1: return makeAlexNet(batch);
      case WorkloadId::CNN2: return makeGoogLeNet(batch);
      case WorkloadId::CNN3: return makeResNet50(batch);
      case WorkloadId::RNN1: return makeRnn("RNN-1", batch, 2560, 1);
      case WorkloadId::RNN2: return makeRnn("RNN-2", batch, 1024, 4);
      case WorkloadId::RNN3: return makeRnn("RNN-3", batch, 2048, 4);
    }
    NEUMMU_PANIC("unknown workload id");
}

DnnModel
makeCommonLayer(WorkloadId id, unsigned batch)
{
    // Large batches make convolutions compute-bound (translation
    // latency hides); the memory-bound layers that dominate large-
    // batch translation behavior are the fully connected ones, so
    // they serve as each CNN's common layer configuration.
    DnnModel wl{workloadName(id) + ".common", {}};
    switch (id) {
      case WorkloadId::CNN1:
        wl.layers.push_back(gemmLayer("fc6", batch, 9216, 4096));
        break;
      case WorkloadId::CNN2:
        wl.layers.push_back(gemmLayer("fc", batch, 1024, 1000));
        break;
      case WorkloadId::CNN3:
        wl.layers.push_back(gemmLayer("fc", batch, 2048, 1000));
        break;
      case WorkloadId::RNN1:
        wl.layers.push_back(gemmLayer("step", batch, 5120, 2560));
        break;
      case WorkloadId::RNN2:
        wl.layers.push_back(gemmLayer("step", batch, 2048, 4096));
        break;
      case WorkloadId::RNN3:
        wl.layers.push_back(gemmLayer("step", batch, 4096, 8192));
        break;
    }
    return wl;
}

} // namespace neummu
