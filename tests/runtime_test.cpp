/** @file Unit tests for the host runtime executor. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <thread>

#include "support/error.h"
#include "support/thread_pool.h"

#include "models/bucketing.h"
#include "runtime/executor.h"

using namespace streamtensor;

namespace {

runtime::LlmExecutor &
gpt2Executor()
{
    static runtime::LlmExecutor executor(models::gpt2Config(),
                                         hls::u55c());
    return executor;
}

/** The 22 GPT-2 bucket shapes of the default policy: one prefill
 *  and one decode shape per bucket boundary. */
std::vector<models::BlockShapes>
gpt2BucketShapes()
{
    models::BucketPolicy buckets;
    std::vector<models::BlockShapes> shapes;
    for (int64_t len : models::bucketBoundaries(buckets)) {
        shapes.push_back(models::bucketedPrefillShapes(len, buckets));
        shapes.push_back(models::bucketedDecodeShapes(len, buckets));
    }
    return shapes;
}

/** A GPT-2 executor with every bucket shape compiled. */
runtime::LlmExecutor &
warmBucketExecutor()
{
    static runtime::LlmExecutor executor(models::gpt2Config(),
                                         hls::u55c());
    static const bool warmed = [] {
        std::vector<runtime::StepGroup> all;
        for (const auto &s : gpt2BucketShapes())
            all.push_back({s, 1});
        (void)executor.step(all);
        return true;
    }();
    (void)warmed;
    return executor;
}

/** A random step composition: 1-8 groups over the bucket shapes,
 *  duplicates allowed, counts 1-8, in random order. */
std::vector<runtime::StepGroup>
randomComposition(std::mt19937_64 &rng,
                  const std::vector<models::BlockShapes> &shapes)
{
    std::uniform_int_distribution<size_t> pick(0, shapes.size() - 1);
    std::uniform_int_distribution<int64_t> size(1, 8);
    std::vector<runtime::StepGroup> groups(
        static_cast<size_t>(size(rng)));
    for (auto &g : groups)
        g = {shapes[pick(rng)], size(rng)};
    return groups;
}

/** The step formula as the executor first wrote it: merge through
 *  a std::map, then per shape sum sim::batchedCycles over the
 *  block's groups (sim::steadyIntervalCycles re-derived on every
 *  call). The bit-identity oracle for LlmExecutor::step. */
runtime::StepResult
referenceStep(runtime::LlmExecutor &executor,
              const std::vector<runtime::StepGroup> &groups)
{
    std::map<models::BlockShapes, int64_t> merged;
    int64_t total_seqs = 0;
    for (const auto &g : groups) {
        merged[g.shapes] += g.count;
        total_seqs += g.count;
    }
    const hls::FpgaPlatform &platform = executor.platform();
    double freq_hz = platform.freq_mhz * 1e6;
    double amort = 0.55 + 0.45 / (1.0 + total_seqs / 96.0);
    double overhead_ms =
        platform.invocation_overhead_us * amort / 1e3;
    int64_t layers = executor.config().layers;
    runtime::StepResult result;
    for (const auto &[shapes, count] : merged) {
        const runtime::CompiledBlock &blk = executor.block(shapes);
        double cycles = 0.0, stall_cycles = 0.0;
        for (const auto &s : blk.sims) {
            cycles += sim::batchedCycles(s, count);
            result.deadlock =
                result.deadlock || s.deadlock || s.timed_out;
            result.crossings += s.crossing_channels;
            stall_cycles += s.crossing_stall_cycles;
        }
        result.kv_tokens += count * shapes.kv_len;
        result.step_ms +=
            layers * (cycles / freq_hz * 1e3 + overhead_ms);
        result.crossing_stall_ms +=
            layers * stall_cycles / freq_hz * 1e3;
    }
    return result;
}

/** Exact (bitwise for the doubles) equality of two step costs. */
void
expectSameStep(const runtime::StepResult &a,
               const runtime::StepResult &b)
{
    EXPECT_EQ(a.step_ms, b.step_ms);
    EXPECT_EQ(a.crossing_stall_ms, b.crossing_stall_ms);
    EXPECT_EQ(a.crossings, b.crossings);
    EXPECT_EQ(a.kv_tokens, b.kv_tokens);
    EXPECT_EQ(a.deadlock, b.deadlock);
}

} // namespace

TEST(Executor, RunProducesFiniteMetrics)
{
    auto r = gpt2Executor().run(32, 32);
    EXPECT_GT(r.ttft_ms, 0.0);
    EXPECT_GT(r.decode_ms_per_token, 0.0);
    EXPECT_GT(r.tokens_per_s, 0.0);
    EXPECT_GT(r.energy_j, 0.0);
    EXPECT_GT(r.tokens_per_joule, 0.0);
    EXPECT_FALSE(r.deadlock);
}

TEST(Executor, LatencyDecomposes)
{
    auto r = gpt2Executor().run(32, 64);
    EXPECT_NEAR(r.total_latency_ms,
                r.ttft_ms + 64 * r.decode_ms_per_token, 1e-6);
    EXPECT_NEAR(r.tokens_per_s,
                64.0 / (64 * r.decode_ms_per_token) * 1e3, 1e-6);
}

TEST(Executor, TtftScalesWithInputLength)
{
    auto r32 = gpt2Executor().run(32, 32);
    auto r128 = gpt2Executor().run(128, 32);
    // Roughly linear: 4x input within [2.5x, 6x].
    double ratio = r128.ttft_ms / r32.ttft_ms;
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 6.0);
}

TEST(Executor, BlockCacheReusesCompiles)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &a = executor.block(models::decodeShapes(48));
    const auto &b = executor.block(models::decodeShapes(48));
    EXPECT_EQ(&a, &b);
    const auto &c = executor.block(models::decodeShapes(96));
    EXPECT_NE(&a, &c);
}

TEST(Executor, PowerWithinPlatformEnvelope)
{
    auto r = gpt2Executor().run(64, 64);
    EXPECT_GT(r.avg_power_w,
              hls::u55c().tdp_watts *
                  hls::u55c().idle_power_fraction * 0.99);
    EXPECT_LE(r.avg_power_w, hls::u55c().tdp_watts);
}

TEST(Executor, AllModelsRunDecodeWithoutDeadlock)
{
    for (const auto &cfg : models::allConfigs()) {
        runtime::LlmExecutor executor(cfg, hls::u55c());
        auto r = executor.run(32, 32);
        EXPECT_FALSE(r.deadlock) << cfg.name;
        EXPECT_GT(r.tokens_per_s, 0.0) << cfg.name;
    }
}

TEST(Executor, DeterministicAcrossRuns)
{
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c());
    auto ra = a.run(32, 32);
    auto rb = b.run(32, 32);
    EXPECT_DOUBLE_EQ(ra.total_latency_ms, rb.total_latency_ms);
    EXPECT_DOUBLE_EQ(ra.ttft_ms, rb.ttft_ms);
}

TEST(Executor, RejectsBadRequests)
{
    EXPECT_THROW(gpt2Executor().run(0, 8), FatalError);
    EXPECT_THROW(gpt2Executor().run(8, 0), FatalError);
}

TEST(Executor, CacheKeyedByBlockShapesNotLengthPair)
{
    // Prefill {48, 48} and decode {1, 48} share a kv_len but are
    // distinct shapes and must compile separately.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &prefill =
        executor.block(models::prefillShapes(48));
    const auto &decode = executor.block(models::decodeShapes(48));
    EXPECT_NE(&prefill, &decode);
    EXPECT_EQ(executor.compileCount(), 2);
}

TEST(Executor, RequestsInSameBucketCompileExactlyOnce)
{
    // Serving regression: two requests whose lengths land in the
    // same buckets must hit one compiled block. Inputs 9 and 12
    // prefill-bucket to 16 and every decode context (11..15)
    // buckets to 16 too, so the second request adds zero
    // compiles.
    models::BucketPolicy buckets;
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto serveOnce = [&](int64_t input_len, int64_t output_len) {
        (void)executor.step(
            {{models::bucketedPrefillShapes(input_len, buckets),
              1}});
        for (int64_t t = 1; t < output_len; ++t)
            (void)executor.step(
                {{models::bucketedDecodeShapes(input_len + t + 1,
                                               buckets),
                  1}});
    };
    serveOnce(9, 3);
    int64_t compiles_after_first = executor.compileCount();
    EXPECT_EQ(compiles_after_first, 2); // one prefill, one decode
    serveOnce(12, 3);
    EXPECT_EQ(executor.compileCount(), compiles_after_first);
}

TEST(Executor, StepCostsBatchedGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto single = executor.step({{models::decodeShapes(96), 1}});
    auto batched = executor.step({{models::decodeShapes(96), 4}});
    EXPECT_FALSE(single.deadlock);
    EXPECT_GT(single.step_ms, 0.0);
    // Batching amortises weight streaming: more than one
    // sequence's cost, well under four serial passes.
    EXPECT_GT(batched.step_ms, single.step_ms);
    EXPECT_LT(batched.step_ms, 4.0 * single.step_ms);
}

TEST(Executor, StepSumsShapeGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto decode = executor.step({{models::decodeShapes(96), 2}});
    auto prefill =
        executor.step({{models::prefillShapes(32), 1}});
    auto mixed =
        executor.step({{models::decodeShapes(96), 2},
                       {models::prefillShapes(32), 1}});
    EXPECT_GT(mixed.step_ms, decode.step_ms);
    EXPECT_GT(mixed.step_ms, prefill.step_ms);
    // Overhead amortisation makes the combined step cheaper than
    // the two separate steps.
    EXPECT_LT(mixed.step_ms, decode.step_ms + prefill.step_ms);
}

TEST(Executor, StepIsDeterministic)
{
    runtime::LlmExecutor a(models::gpt2Config(), hls::u55c());
    runtime::LlmExecutor b(models::gpt2Config(), hls::u55c());
    std::vector<runtime::StepGroup> groups = {
        {models::decodeShapes(64), 3},
        {models::prefillShapes(32), 1}};
    EXPECT_DOUBLE_EQ(a.step(groups).step_ms,
                     b.step(groups).step_ms);
}

TEST(Executor, StepMergesDuplicateShapeGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto split = executor.step({{models::decodeShapes(96), 1},
                                {models::decodeShapes(96), 1}});
    auto merged = executor.step({{models::decodeShapes(96), 2}});
    EXPECT_DOUBLE_EQ(split.step_ms, merged.step_ms);
    EXPECT_EQ(executor.compileCount(), 1);
}

TEST(Executor, StepRejectsMalformedGroups)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    EXPECT_THROW(executor.step({}), FatalError);
    EXPECT_THROW(
        executor.step({{models::decodeShapes(48), 0}}),
        FatalError);
}

TEST(CompiledBlock, BatchedCyclesGrowLinearlyAtSteadyInterval)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &blk = executor.block(models::decodeShapes(48));
    double b1 = blk.batchedCycles(1);
    double b2 = blk.batchedCycles(2);
    double b3 = blk.batchedCycles(3);
    EXPECT_DOUBLE_EQ(b1, blk.totalCycles());
    EXPECT_GT(b2, b1);
    // Marginal cost of each extra member is one steady interval.
    EXPECT_DOUBLE_EQ(b3 - b2, b2 - b1);
    // The steady interval never exceeds the full fill latency.
    EXPECT_LE(b2 - b1, b1);
    for (const auto &s : blk.sims) {
        double interval = sim::steadyIntervalCycles(s);
        EXPECT_GT(interval, 0.0);
        EXPECT_LE(interval, s.cycles);
    }
    EXPECT_THROW(blk.batchedCycles(0), FatalError);
}

TEST(CompiledBlock, AggregatesGroupCycles)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    const auto &blk = executor.block(models::decodeShapes(48));
    EXPECT_GT(blk.totalCycles(), 0.0);
    EXPECT_FALSE(blk.deadlocked());
    EXPECT_EQ(blk.sims.size(),
              static_cast<size_t>(
                  blk.compile.design.components.numGroups()));
}

TEST(Executor, WarmRaceCompilesOnce)
{
    // Two threads warming the same bucketed shape concurrently
    // must produce exactly one compile: the second caller blocks
    // on the in-flight entry instead of compiling a duplicate
    // (the dedupe documented on block()).
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto shapes = models::decodeShapes(64);
    const runtime::CompiledBlock *a = nullptr;
    const runtime::CompiledBlock *b = nullptr;
    std::thread t1([&] { a = &executor.block(shapes); });
    std::thread t2([&] { b = &executor.block(shapes); });
    t1.join();
    t2.join();
    EXPECT_EQ(executor.compileCount(), 1);
    // Both callers see the same cached entry.
    EXPECT_EQ(a, b);
    // A third call is a pure cache hit.
    executor.block(shapes);
    EXPECT_EQ(executor.compileCount(), 1);
}

TEST(Executor, GatedPrefillMatchesUngatedWhenWeightsResident)
{
    // All-zero watermarks (weights resident before the run) gate
    // nothing: the chained per-layer sum equals run().ttft_ms up
    // to summation order.
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto run = executor.run(32, 1);
    std::vector<double> warm(
        static_cast<size_t>(executor.config().layers), 0.0);
    double end = executor.gatedPrefillEndMs(32, warm, 0.0);
    EXPECT_NEAR(end, run.ttft_ms, 1e-6 * run.ttft_ms);
}

TEST(Executor, GatedPrefillStallsOnLateWeights)
{
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    auto layers = static_cast<size_t>(executor.config().layers);

    // A far-future uniform watermark pins the result: only layer
    // 0 waits (its successors' weights landed long before their
    // turn), so the pass degenerates to ready + one full prefill.
    std::vector<double> warm(layers, 0.0);
    double warm_end = executor.gatedPrefillEndMs(32, warm, 0.0);
    std::vector<double> late(layers, 1e6);
    double late_end = executor.gatedPrefillEndMs(32, late, 0.0);
    EXPECT_NEAR(late_end, 1e6 + warm_end, 1e-6 * late_end);

    // Gating is monotone in the watermark and never beats warm.
    std::vector<double> partial(layers, 0.0);
    partial.back() = warm_end; // only the last layer streams late
    double partial_end =
        executor.gatedPrefillEndMs(32, partial, 0.0);
    EXPECT_GE(partial_end, warm_end);
    EXPECT_LE(partial_end, late_end);

    EXPECT_THROW(executor.gatedPrefillEndMs(32, {}, 0.0),
                 FatalError);
}

TEST(Executor, StepMatchesReferenceFormulaBitForBit)
{
    // Warm steps cost from terms precomputed when a block is
    // cached, and skip the merge for already-sorted input; neither
    // may move a single bit against the original formula.
    runtime::LlmExecutor &executor = warmBucketExecutor();
    auto shapes = gpt2BucketShapes();
    ASSERT_EQ(shapes.size(), 22u);
    std::mt19937_64 rng(0x5eed1234);
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE(trial);
        auto groups = randomComposition(rng, shapes);
        runtime::StepResult got = executor.step(groups);
        expectSameStep(got, referenceStep(executor, groups));

        // The merged, strictly ascending form takes the no-merge
        // path and must agree with the shuffled input.
        std::map<models::BlockShapes, int64_t> merged;
        for (const auto &g : groups)
            merged[g.shapes] += g.count;
        std::vector<runtime::StepGroup> sorted;
        for (const auto &[s, count] : merged)
            sorted.push_back({s, count});
        expectSameStep(executor.step(sorted), got);
        std::shuffle(groups.begin(), groups.end(), rng);
        expectSameStep(executor.step(groups), got);
    }
    EXPECT_EQ(executor.compileCount(), 22);
}

TEST(Executor, ColdStepEqualsWarmStep)
{
    // All three shapes miss on the first step (compiled
    // concurrently on the shared pool); the repeat is all hits.
    std::vector<runtime::StepGroup> groups = {
        {models::decodeShapes(256), 3},
        {models::prefillShapes(16), 1},
        {models::decodeShapes(64), 2}};
    runtime::LlmExecutor cold(models::gpt2Config(), hls::u55c());
    runtime::StepResult first = cold.step(groups);
    EXPECT_EQ(cold.compileCount(), 3);
    expectSameStep(cold.step(groups), first);
    expectSameStep(referenceStep(cold, groups), first);
    EXPECT_EQ(cold.compileCount(), 3);

    // The same cold step from inside a pool job: its misses
    // compile through the nested (inline) run.
    runtime::LlmExecutor nested(models::gpt2Config(), hls::u55c());
    std::vector<runtime::StepResult> in_job(2);
    support::ThreadPool::shared().run(
        2, [&](int64_t i) { in_job[i] = nested.step(groups); });
    EXPECT_EQ(nested.compileCount(), 3);
    expectSameStep(in_job[0], first);
    expectSameStep(in_job[1], first);
}

TEST(Executor, WarmStepsCompileNothing)
{
    runtime::LlmExecutor &executor = warmBucketExecutor();
    auto shapes = gpt2BucketShapes();
    int64_t compiles = executor.compileCount();
    std::mt19937_64 rng(1009);
    std::vector<std::vector<runtime::StepGroup>> steps(1000);
    for (auto &groups : steps)
        groups = randomComposition(rng, shapes);

    std::vector<runtime::StepResult> direct;
    direct.reserve(steps.size());
    for (const auto &groups : steps)
        direct.push_back(executor.step(groups));
    EXPECT_EQ(executor.compileCount(), compiles);

    // The same steps issued from inside pool jobs.
    std::vector<runtime::StepResult> pooled(steps.size());
    const int64_t jobs = 4;
    support::ThreadPool::shared().run(jobs, [&](int64_t j) {
        for (size_t i = static_cast<size_t>(j); i < steps.size();
             i += static_cast<size_t>(jobs))
            pooled[i] = executor.step(steps[i]);
    });
    EXPECT_EQ(executor.compileCount(), compiles);
    for (size_t i = 0; i < steps.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameStep(pooled[i], direct[i]);
    }
}
