#include "serving/weights.h"

#include <algorithm>
#include <utility>

#include "support/error.h"
#include "support/math_util.h"

namespace streamtensor {
namespace serving {

namespace {

int64_t
packedBytes(int64_t params, ir::DataType dtype)
{
    return ceilDiv(params * ir::bitWidth(dtype), 8);
}

} // namespace

ModelArtifact
ModelArtifact::fromConfig(const models::LlmConfig &config)
{
    ST_CHECK(config.layers >= 1, "artifact needs layers");
    ST_CHECK(config.hidden >= 1 && config.ffn_hidden >= 1 &&
                 config.heads >= 1 && config.kv_heads >= 1 &&
                 config.head_dim >= 1,
             "artifact config dimensions must be positive");

    int64_t q_dim = config.heads * config.head_dim;
    int64_t kv_dim = config.kv_heads * config.head_dim;
    ir::DataType dtype = config.weight_dtype;

    LayerManifest layer;
    auto add = [&](const char *name, int64_t params) {
        int64_t bytes = packedBytes(params, dtype);
        layer.tensors.push_back({name, bytes});
        layer.bytes += bytes;
    };
    add("wq", config.hidden * q_dim);
    add("wk", config.hidden * kv_dim);
    add("wv", config.hidden * kv_dim);
    add("wo", q_dim * config.hidden);
    if (config.activation == models::Activation::Silu) {
        add("w_gate", config.hidden * config.ffn_hidden);
        add("w_up", config.hidden * config.ffn_hidden);
        add("w_down", config.ffn_hidden * config.hidden);
    } else {
        add("w_fc1", config.hidden * config.ffn_hidden);
        add("w_fc2", config.ffn_hidden * config.hidden);
    }
    add("norms", 2 * config.hidden);

    ModelArtifact artifact;
    artifact.model = config.name;
    artifact.layers.assign(static_cast<size_t>(config.layers),
                           layer);
    artifact.total_bytes = layer.bytes * config.layers;
    return artifact;
}

double
WeightStreamPlan::gatedComputeEndMs(double start_ms_in,
                                    double compute_ms,
                                    bool overlap) const
{
    ST_CHECK(compute_ms >= 0.0, "compute time domain");
    if (empty())
        return start_ms_in + compute_ms;
    if (!overlap)
        return std::max(start_ms_in, end_ms) + compute_ms;
    double per_layer_ms =
        compute_ms / static_cast<double>(layer_ready_ms.size());
    double t = start_ms_in;
    for (double ready : layer_ready_ms)
        t = std::max(t, ready) + per_layer_ms;
    // The chained per-layer sum can undershoot compute_ms by an
    // ulp when nothing gated; the documented lower bound wins.
    return std::max(t, start_ms_in + compute_ms);
}

WeightStreamer::WeightStreamer(WeightStreamOptions options)
    : options_(std::move(options))
{
    validateStorageTier(options_.tier);
    ST_CHECK(options_.num_readers >= 1, "reader count domain");
    ST_CHECK(options_.chunk_bytes >= 1, "chunk size domain");
}

WeightStreamPlan
WeightStreamer::plan(const ModelArtifact &artifact,
                     double start_ms) const
{
    ST_CHECK(!artifact.layers.empty(), "artifact has no layers");
    ST_CHECK(start_ms >= 0.0, "stream start domain");

    // Task list: every tensor split into chunk_bytes reads, in
    // layer order. One entry per read operation.
    struct Chunk
    {
        int64_t layer;
        int64_t bytes;
    };
    std::vector<Chunk> tasks;
    for (size_t l = 0; l < artifact.layers.size(); ++l) {
        for (const auto &tensor : artifact.layers[l].tensors) {
            ST_CHECK(tensor.bytes >= 1,
                     "manifest tensor must be non-empty");
            int64_t left = tensor.bytes;
            while (left > 0) {
                int64_t take =
                    std::min(left, options_.chunk_bytes);
                tasks.push_back(
                    {static_cast<int64_t>(l), take});
                left -= take;
            }
        }
    }

    // Round-robin assignment over the *active* readers: extra
    // readers beyond the chunk count would neither read nor
    // contend.
    int64_t readers =
        std::min(options_.num_readers,
                 static_cast<int64_t>(tasks.size()));
    int64_t num_tasks = static_cast<int64_t>(tasks.size());

    WeightStreamPlan plan;
    plan.model = artifact.model;
    plan.tier = options_.tier.name;
    plan.start_ms = start_ms;
    plan.readers = readers;
    plan.chunks = num_tasks;
    plan.bytes_total = artifact.total_bytes;
    plan.layer_ready_ms.assign(artifact.layers.size(), start_ms);

    // Reader r services chunks r, r+R, ... sequentially: each
    // completion is a running sum of tier chunk times on that
    // reader's own clock. The readers overlap in simulated time
    // only, so one pass over the chunks computes every timeline.
    std::vector<double> reader_ms(static_cast<size_t>(readers),
                                  start_ms);
    for (int64_t k = 0; k < num_tasks; ++k) {
        const Chunk &chunk = tasks[static_cast<size_t>(k)];
        double &t = reader_ms[static_cast<size_t>(k % readers)];
        t += chunkServiceMs(options_.tier, chunk.bytes, readers);
        auto layer = static_cast<size_t>(chunk.layer);
        plan.layer_ready_ms[layer] =
            std::max(plan.layer_ready_ms[layer], t);
    }
    // A layer is usable only with all its predecessors resident:
    // the watermark is the prefix max.
    for (size_t l = 1; l < plan.layer_ready_ms.size(); ++l)
        plan.layer_ready_ms[l] =
            std::max(plan.layer_ready_ms[l],
                     plan.layer_ready_ms[l - 1]);
    plan.end_ms = plan.layer_ready_ms.back();
    return plan;
}

} // namespace serving
} // namespace streamtensor
