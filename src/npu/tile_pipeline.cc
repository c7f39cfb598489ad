#include "npu/tile_pipeline.hh"

#include "common/logging.hh"

namespace neummu {

TilePipeline::TilePipeline(EventQueue &eq, DmaEngine &dma,
                           unsigned buffer_depth)
    : _eq(eq), _dma(dma), _bufferDepth(buffer_depth)
{
    if (buffer_depth < 1)
        throw ConfigError("bufferDepth must be >= 1 (one tile buffer)");
}

PipelineResult
TilePipeline::run(const std::vector<TileWork> &tiles)
{
    PipelineResult result;
    result.tiles = tiles.size();
    if (tiles.empty())
        return result;

    bool finished = false;
    start(tiles, [&](const PipelineResult &r) {
        result = r;
        finished = true;
    });
    _eq.run();
    NEUMMU_ASSERT(finished,
                  "pipeline drained before finishing all tiles");
    return result;
}

void
TilePipeline::start(const std::vector<TileWork> &tiles,
                    DoneCallback done)
{
    NEUMMU_ASSERT(!_tiles, "pipeline already running a tile sequence");
    if (tiles.empty()) {
        // Degenerate empty sequence: complete without traffic.
        PipelineResult result;
        result.finishTick = _eq.now();
        _eq.scheduleIn(0, [done = std::move(done), result] {
            done(result);
        });
        return;
    }

    _tiles = &tiles;
    _onDone = std::move(done);
    _startTick = _eq.now();
    _nextFetch = 0;
    _computesDone = 0;
    _fetchReady.assign(tiles.size(), false);
    _computeFinished.assign(tiles.size(), false);
    _lastComputeDone = _eq.now();
    _memBusy = 0;
    _computeBusy = 0;

    startNextFetchIfReady();
}

void
TilePipeline::startNextFetchIfReady()
{
    if (!_tiles || _nextFetch >= _tiles->size() || _dma.busy())
        return;
    // The target SPM buffer is free only once the tile that last used
    // it has finished computing.
    if (_nextFetch >= _bufferDepth &&
        !_computeFinished[_nextFetch - _bufferDepth]) {
        return;
    }

    const std::size_t idx = _nextFetch++;
    const TileWork &tile = (*_tiles)[idx];
    std::vector<VaRun> runs;
    runs.reserve(tile.iaRuns.size() + tile.wRuns.size());
    // Fig. 3 order: IA first, then W, never interleaved.
    runs.insert(runs.end(), tile.iaRuns.begin(), tile.iaRuns.end());
    runs.insert(runs.end(), tile.wRuns.begin(), tile.wRuns.end());

    _fetchStart = _eq.now();
    _dma.fetch(std::move(runs),
               [this, idx](Tick at) { onFetchDone(idx, at); });
}

void
TilePipeline::onFetchDone(std::size_t idx, Tick at)
{
    _fetchReady[idx] = true;
    _memBusy += at - _fetchStart;
    tryStartCompute(idx);
    startNextFetchIfReady();
}

void
TilePipeline::tryStartCompute(std::size_t idx)
{
    // Compute(idx) needs its data resident and the PEs free (the
    // previous tile's compute finished).
    if (!_fetchReady[idx])
        return;
    if (idx > 0 && !_computeFinished[idx - 1])
        return;
    const Tick cycles = (*_tiles)[idx].computeCycles;
    _computeBusy += cycles;
    _eq.scheduleIn(cycles, [this, idx] { onComputeDone(idx); });
}

void
TilePipeline::onComputeDone(std::size_t idx)
{
    _computeFinished[idx] = true;
    _computesDone++;
    _lastComputeDone = _eq.now();
    if (idx + 1 < _tiles->size())
        tryStartCompute(idx + 1);
    startNextFetchIfReady();

    if (_computesDone == _tiles->size()) {
        PipelineResult result;
        result.tiles = _tiles->size();
        result.finishTick = _lastComputeDone;
        result.totalCycles = _lastComputeDone - _startTick;
        result.memPhaseCycles = _memBusy;
        result.computePhaseCycles = _computeBusy;
        _tiles = nullptr;
        auto done = std::move(_onDone);
        _onDone = nullptr;
        if (done)
            done(result);
    }
}

} // namespace neummu
