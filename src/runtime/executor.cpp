#include "runtime/executor.h"

#include <algorithm>
#include <cmath>

#include "support/error.h"
#include "support/thread_pool.h"

namespace streamtensor {
namespace runtime {

namespace {

/** Invocation overhead amortises as the XRT run queue stays warm
 *  (more tokens in flight -> cheaper trigger). */
double
invocationOverheadMs(const hls::FpgaPlatform &platform,
                     int64_t tokens_in_flight)
{
    double amort = 0.55 + 0.45 / (1.0 + tokens_in_flight / 96.0);
    return platform.invocation_overhead_us * amort / 1e3;
}

} // namespace

CompiledBlock::CompiledBlock(compiler::CompileResult result,
                             std::vector<sim::SimResult> group_sims)
    : compile(std::move(result)), sims(std::move(group_sims))
{
    terms_.reserve(sims.size());
    for (const auto &s : sims) {
        terms_.push_back({s.cycles, sim::steadyIntervalCycles(s)});
        deadlocked_ = deadlocked_ || s.deadlock || s.timed_out;
        crossings_ += s.crossing_channels;
        crossing_stall_cycles_ += s.crossing_stall_cycles;
    }
}

double
CompiledBlock::totalCycles() const
{
    double cycles = 0.0;
    for (const auto &s : sims)
        cycles += s.cycles;
    return cycles;
}

double
CompiledBlock::batchedCycles(int64_t batch) const
{
    // The same expression as sim::batchedCycles, so a precomputed
    // steady interval gives the same bits.
    ST_CHECK(batch >= 1, "batch must be positive");
    double extra = static_cast<double>(batch - 1);
    double cycles = 0.0;
    for (const auto &t : terms_)
        cycles += t.fill_cycles + extra * t.steady_cycles;
    return cycles;
}

LlmExecutor::LlmExecutor(models::LlmConfig config,
                         hls::FpgaPlatform platform,
                         compiler::CompileOptions options)
    : config_(std::move(config)), platform_(std::move(platform)),
      options_(std::move(options))
{}

const CompiledBlock &
LlmExecutor::block(const models::BlockShapes &shapes)
{
    {
        std::unique_lock<std::mutex> lock(cache_mutex_);
        while (true) {
            auto it = cache_.find(shapes);
            if (it != cache_.end())
                return *it->second;
            // Someone else is already compiling these shapes:
            // wait for their insert rather than compiling a
            // duplicate (the loser's work — a full compile +
            // simulation — used to be discarded, and
            // compileCount() double-counted the shape).
            if (compiling_.count(shapes) == 0)
                break;
            compile_done_.wait(lock);
        }
        compiling_.insert(shapes);
    }

    // Compile + simulate outside the lock so concurrent *distinct*
    // shapes overlap (resolve() fans misses out on the pool).
    ++compile_count_;
    std::unique_ptr<CompiledBlock> compiled;
    try {
        linalg::Graph graph =
            models::buildTransformerBlock(config_, shapes);
        compiler::CompileResult result =
            compiler::compile(std::move(graph), platform_, options_);
        std::vector<sim::SimResult> sims =
            sim::simulateAll(result.design.components);
        compiled = std::make_unique<CompiledBlock>(std::move(result),
                                                   std::move(sims));
    } catch (...) {
        // Unblock waiters before propagating; they will retry the
        // compile themselves.
        std::lock_guard<std::mutex> lock(cache_mutex_);
        compiling_.erase(shapes);
        compile_done_.notify_all();
        throw;
    }

    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto [pos, inserted] =
        cache_.emplace(shapes, std::move(compiled));
    ST_ASSERT(inserted,
              "a duplicate compile slipped past the in-flight "
              "guard");
    compiling_.erase(shapes);
    compile_done_.notify_all();
    return *pos->second;
}

std::vector<const CompiledBlock *>
LlmExecutor::resolve(const std::vector<StepGroup> &groups)
{
    std::vector<const CompiledBlock *> out(groups.size(), nullptr);
    std::vector<size_t> misses;
    {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        for (size_t i = 0; i < groups.size(); ++i) {
            auto it = cache_.find(groups[i].shapes);
            if (it != cache_.end())
                out[i] = it->second.get();
            else
                misses.push_back(i);
        }
    }
    // Entries are never evicted, so the pointers stay valid after
    // the lock drops. Only misses pay for the pool.
    if (!misses.empty())
        support::ThreadPool::shared().run(
            static_cast<int64_t>(misses.size()), [&](int64_t m) {
                size_t i = misses[static_cast<size_t>(m)];
                out[i] = &block(groups[i].shapes);
            });
    return out;
}

double
LlmExecutor::gatedPrefillEndMs(
    int64_t input_len, const std::vector<double> &layer_ready_ms,
    double start_ms)
{
    ST_CHECK(input_len >= 1, "request lengths must be positive");
    ST_CHECK(static_cast<int64_t>(layer_ready_ms.size()) ==
                 config_.layers,
             "residency watermark must cover every layer");
    const CompiledBlock &prefill =
        block(models::prefillShapes(input_len));
    double freq_hz = platform_.freq_mhz * 1e6;
    double per_layer_ms =
        prefill.totalCycles() / freq_hz * 1e3 +
        invocationOverheadMs(platform_, 1);
    double t = start_ms;
    for (double ready : layer_ready_ms)
        t = std::max(t, ready) + per_layer_ms;
    return t;
}

LlmRunResult
LlmExecutor::run(int64_t input_len, int64_t output_len)
{
    ST_CHECK(input_len >= 1 && output_len >= 1,
             "request lengths must be positive");
    LlmRunResult result;
    double freq_hz = platform_.freq_mhz * 1e6;
    int64_t mid_kv = input_len + std::max<int64_t>(output_len / 2,
                                                   1);

    // Resolve both block shapes of this request at once: a warm
    // request takes one cache lock, a cold one compiles its misses
    // concurrently on the shared pool.
    std::vector<const CompiledBlock *> blocks =
        resolve({{models::prefillShapes(input_len), 1},
                 {models::decodeShapes(mid_kv), 1}});

    // --- Prefill: one trigger per layer at seq = input length.
    const CompiledBlock &prefill = *blocks[0];
    result.block_prefill_ms =
        prefill.totalCycles() / freq_hz * 1e3;
    result.deadlock |= prefill.deadlocked();

    auto overhead_ms = [&](int64_t tokens_in_flight) {
        return invocationOverheadMs(platform_, tokens_in_flight);
    };
    result.ttft_ms =
        config_.layers *
        (result.block_prefill_ms + overhead_ms(1));

    // --- Decode: simulate at the run's mean context length.
    const CompiledBlock &decode = *blocks[1];
    result.block_decode_ms = decode.totalCycles() / freq_hz * 1e3;
    result.deadlock |= decode.deadlocked();

    result.decode_ms_per_token =
        config_.layers *
        (result.block_decode_ms + overhead_ms(output_len));

    // Placement visibility: crossings of both compiled blocks and
    // the crossing-attributed stall of one prefill pass plus one
    // decode step across all layers.
    result.crossings = prefill.crossings() + decode.crossings();
    result.crossing_stall_ms =
        config_.layers *
        (prefill.crossingStallCycles() +
         decode.crossingStallCycles()) /
        freq_hz * 1e3;
    double decode_total_ms =
        result.decode_ms_per_token * output_len;
    result.total_latency_ms = result.ttft_ms + decode_total_ms;
    result.tokens_per_s = output_len / decode_total_ms * 1e3;

    // --- Energy: idle floor plus dynamic compute and HBM shares.
    double decode_flops = config_.blockFlops(1, mid_kv) *
                          config_.layers;
    double util_compute =
        decode_flops /
        (result.decode_ms_per_token / 1e3) /
        (platform_.peakInt8Tops() * 1e12);
    double bytes_per_token =
        static_cast<double>(config_.blockParamBytes()) *
        config_.layers;
    double util_bw = bytes_per_token /
                     (result.decode_ms_per_token / 1e3) /
                     (platform_.memory_bandwidth_gbps * 1e9);
    util_compute = std::clamp(util_compute, 0.0, 1.0);
    util_bw = std::clamp(util_bw, 0.0, 1.0);
    result.avg_power_w =
        platform_.tdp_watts *
        (platform_.idle_power_fraction + 0.35 * util_compute +
         0.20 * util_bw);
    result.energy_j =
        result.avg_power_w * result.total_latency_ms / 1e3;
    result.tokens_per_joule = output_len / result.energy_j;
    return result;
}

StepResult
LlmExecutor::step(const std::vector<StepGroup> &groups)
{
    ST_CHECK(!groups.empty(), "step needs at least one group");
    int64_t total_seqs = 0;
    bool ascending = true;
    for (size_t i = 0; i < groups.size(); ++i) {
        ST_CHECK(groups[i].count >= 1,
                 "group count must be positive");
        total_seqs += groups[i].count;
        ascending = ascending &&
                    (i == 0 || groups[i - 1].shapes < groups[i].shapes);
    }
    if (ascending)
        return costSorted(groups, total_seqs);

    // Merge duplicate shapes so {{S,1},{S,1}} costs like {{S,2}}:
    // one pipeline fill plus steady intervals, one trigger, one
    // compile. Map order also makes the cost independent of the
    // caller's group order.
    std::map<models::BlockShapes, int64_t> merged;
    for (const auto &g : groups)
        merged[g.shapes] += g.count;
    std::vector<StepGroup> sorted;
    sorted.reserve(merged.size());
    for (const auto &[s, count] : merged)
        sorted.push_back({s, count});
    return costSorted(sorted, total_seqs);
}

StepResult
LlmExecutor::costSorted(const std::vector<StepGroup> &groups,
                        int64_t total_seqs)
{
    std::vector<const CompiledBlock *> blocks = resolve(groups);

    // Per layer, each group is one trigger: its batch streams
    // through the block pipeline back-to-back with the layer's
    // weights resident, so members past the first cost only the
    // steady-state interval. Overhead amortises with the whole
    // step's sequences in flight.
    StepResult result;
    double freq_hz = platform_.freq_mhz * 1e6;
    double overhead_ms = invocationOverheadMs(platform_, total_seqs);
    for (size_t i = 0; i < groups.size(); ++i) {
        const StepGroup &g = groups[i];
        const CompiledBlock &blk = *blocks[i];
        result.deadlock = result.deadlock || blk.deadlocked();
        result.kv_tokens += g.count * g.shapes.kv_len;
        double trigger_ms =
            blk.batchedCycles(g.count) / freq_hz * 1e3 + overhead_ms;
        result.step_ms += config_.layers * trigger_ms;
        result.crossings += blk.crossings();
        result.crossing_stall_ms += config_.layers *
                                    blk.crossingStallCycles() /
                                    freq_hz * 1e3;
    }
    return result;
}

} // namespace runtime
} // namespace streamtensor
