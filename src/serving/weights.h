/**
 * @file
 * Weight streaming: the storage→HBM leg of a cold start, crash
 * recovery, or hot model swap.
 *
 * A ModelArtifact is the per-layer tensor manifest of one model —
 * derived from models::LlmConfig exactly the way the executor's
 * block builder sizes its weights (Wq/Wk/Wv/Wo, the FFN matrices,
 * the norms, all at the config's packed weight dtype) — so
 * `total_bytes` equals LlmConfig::totalParamBytes().
 *
 * The WeightStreamer turns an artifact plus a StorageTierProfile
 * into a WeightStreamPlan on the simulated clock, with the
 * reader/assigner/task architecture of real model streamers:
 *
 *   - *tasks*: each tensor is split into fixed-size chunks, listed
 *     in layer order — the unit of one storage read;
 *   - *assigner*: chunk k goes to reader k mod num_readers — a
 *     fixed round-robin, so the assignment is a pure function of
 *     the manifest and the options;
 *   - *readers*: each reader services its chunks sequentially;
 *     per-chunk time comes from chunkServiceMs (storage_tier.h)
 *     with all readers contending for the tier.
 *
 * The readers run concurrently in simulated time only: every
 * completion instant is pure arithmetic over the manifest and the
 * options, computed in one pass, so plans are bit-identical across
 * reruns. The merged result is the per-layer ready watermark:
 * layer_ready_ms[l] is the instant every chunk of layers 0..l has
 * landed in HBM, which is what gates a block trigger during a
 * streamed cold start (a layer may fire once its weights — and its
 * predecessors' — are resident).
 */

#ifndef STREAMTENSOR_SERVING_WEIGHTS_H
#define STREAMTENSOR_SERVING_WEIGHTS_H

#include <cstdint>
#include <string>
#include <vector>

#include "models/llm_config.h"
#include "serving/storage_tier.h"

namespace streamtensor {
namespace serving {

/** One named weight tensor of a layer. */
struct WeightTensor
{
    std::string name;
    int64_t bytes = 0;
};

/** All weight tensors of one transformer layer. */
struct LayerManifest
{
    std::vector<WeightTensor> tensors;

    /** Σ tensor bytes (== LlmConfig::blockParamBytes()). */
    int64_t bytes = 0;
};

/** Per-layer tensor manifest of one model's packed weights. */
struct ModelArtifact
{
    std::string model;
    std::vector<LayerManifest> layers;

    /** Σ layer bytes (== LlmConfig::totalParamBytes()). */
    int64_t total_bytes = 0;

    /** Build the manifest from a model config: per layer, the
     *  attention projections (Wq, Wk, Wv, Wo), the FFN matrices
     *  (fc1/fc2, or gate/up/down under SiLU), and the two norm
     *  vectors, each packed at config.weight_dtype. */
    static ModelArtifact fromConfig(const models::LlmConfig &config);
};

/** WeightStreamer knobs. */
struct WeightStreamOptions
{
    StorageTierProfile tier = gp3Tier();

    /** Concurrent read streams against the tier. More readers
     *  divide the aggregate bandwidth but beat the per-stream
     *  ceiling and hide first-byte latency — the lever that makes
     *  S3-class tiers usable at all. */
    int64_t num_readers = 8;

    /** Bytes per read operation (tensors split into chunks of
     *  this size; the last chunk of a tensor may be smaller). */
    int64_t chunk_bytes = 2 * 1024 * 1024;
};

/** The simulated outcome of streaming one artifact: when each
 *  layer's weights are resident, and when the stream finishes.
 *  A default-constructed plan is the "warm start" sentinel
 *  (empty() — no gating anywhere). */
struct WeightStreamPlan
{
    std::string model;
    std::string tier;

    /** Instant the stream was issued. */
    double start_ms = 0.0;

    /** Instant the last chunk landed in HBM. */
    double end_ms = 0.0;

    /** Per-layer ready watermark: layer_ready_ms[l] is the
     *  instant layers 0..l are fully resident (non-decreasing;
     *  back() == end_ms). */
    std::vector<double> layer_ready_ms;

    int64_t bytes_total = 0;
    int64_t chunks = 0;
    int64_t readers = 0;

    bool empty() const { return layer_ready_ms.empty(); }

    double streamMs() const { return end_ms - start_ms; }

    /** End instant of a compute pass of @p compute_ms starting at
     *  @p start_ms_in, gated on this plan's residency. With
     *  @p overlap, the pass is split evenly across the plan's
     *  layers and layer l fires at
     *  max(previous layer's end, layer_ready_ms[l]) — compute
     *  overlaps the stream, paying only for layers that outrun
     *  their weights. Without overlap, the whole pass waits for
     *  end_ms. Either way the result is >= start + compute, and
     *  exactly start + compute once the stream has finished. An
     *  empty plan gates nothing. */
    double gatedComputeEndMs(double start_ms_in, double compute_ms,
                             bool overlap) const;
};

/** Plans weight streams for one (tier, readers, chunking)
 *  configuration. Stateless and reusable across artifacts. */
class WeightStreamer
{
  public:
    explicit WeightStreamer(WeightStreamOptions options = {});

    const WeightStreamOptions &options() const { return options_; }

    /** Stream @p artifact starting at @p start_ms: chunk every
     *  tensor, assign chunks round-robin to readers, service each
     *  reader's chunks sequentially at the tier's chunk time, and
     *  merge the completions into the per-layer watermark.
     *  Deterministic — bit-identical across reruns (see the file
     *  header). */
    WeightStreamPlan plan(const ModelArtifact &artifact,
                          double start_ms = 0.0) const;

  private:
    WeightStreamOptions options_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_WEIGHTS_H
