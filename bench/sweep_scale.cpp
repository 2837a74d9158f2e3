/**
 * @file
 * Million-request sweep micro-benchmarks (google-benchmark): the
 * scale harness this repo's serving experiments sweep with. The
 * headline benchmark serves one million Poisson requests through a
 * four-replica fleet on the analytic cost model with streaming
 * metrics (no per-request records), and reports wall-clock
 * requests/s plus the simulated quality counters (p99 from the
 * sketch) and the process peak RSS — the numbers behind the
 * "Million-request sweeps" table in the README. The smaller
 * paired variants measure the event cores against each other
 * (Heap vs LegacyScan) and serial vs parallel replica stepping at
 * a size the O(n)-per-round legacy core can still finish quickly.
 * BM_SweepRealStack serves the same trace shape on the compiled
 * GPT-2 stack (ExecutorCostModel) instead of the analytic proxy,
 * at a gap scaled to that stack's service rate, so its
 * wall_req_per_s sits next to the headline's.
 */

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include "models/bucketing.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"

using namespace streamtensor;

namespace {

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    // ru_maxrss is KiB on Linux.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

serving::TraceOptions
sweepTrace(int64_t num_requests)
{
    serving::TraceOptions options;
    options.num_requests = num_requests;
    options.seed = 42;
    // ~85% of the 4-replica fleet's measured service rate: heavy
    // queueing (a real tail to estimate) without divergence.
    options.mean_interarrival_ms = 2.5;
    options.min_input_len = 4;
    options.max_input_len = 64;
    options.min_output_len = 1;
    options.max_output_len = 16;
    return options;
}

/** Mean arrival gap for the real-stack sweep: ~85% of the GPT-2
 *  fleet's measured service rate of ~59 req/s on this trace shape
 *  (a 16 ms gap already diverges). */
constexpr double kRealStackGapMs = 20.0;

serving::FleetOptions
sweepFleet(serving::FleetEventCore core)
{
    serving::FleetOptions options;
    options.num_replicas = 4;
    options.replica.max_batch = 8;
    options.replica.kv_budget_tokens = 4096;
    options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    // Streaming metrics: the whole point of the sweep harness is
    // O(sketch) memory at millions of requests.
    options.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Never;
    options.event_core = core;
    return options;
}

serving::FleetResult
runSweep(int64_t num_requests, serving::FleetEventCore core)
{
    serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                  sweepTrace(num_requests));
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(sweepFleet(core), cost);
    return fleet.run(trace);
}

/** The headline: 1M requests, heap core, streaming metrics. */
void
BM_ServeMillionRequestSweep(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests,
                          serving::FleetEventCore::Heap);
    const serving::FleetMetrics &m = result.metrics;
    state.counters["wall_req_per_s"] = benchmark::Counter(
        static_cast<double>(num_requests) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["sim_req_per_s"] = m.servedRequestsPerSecond();
    state.counters["completed"] =
        static_cast<double>(m.completed);
    state.counters["p99_ms"] = m.latencyPercentileMs(99.0);
    state.counters["sketch_items"] =
        static_cast<double>(m.latency_sketch.retainedItems());
    state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_ServeMillionRequestSweep)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** Event cores head to head. On calm traffic the two sit within
 *  noise of each other — per-round phase work is bounded by
 *  replica count either way, and the heap's advantage (next-round
 *  selection independent of retry-buffer depth and per-entry
 *  deadline scans) only bites under deep fault backlogs. This
 *  pairing is the regression guard that keeps the default core's
 *  constant factors honest against the oracle's wall clock. */
void
BM_SweepEventCore(benchmark::State &state)
{
    auto core =
        static_cast<serving::FleetEventCore>(state.range(0));
    int64_t num_requests = state.range(1);
    serving::FleetResult result;
    for (auto _ : state)
        result = runSweep(num_requests, core);
    state.counters["completed"] =
        static_cast<double>(result.metrics.completed);
}
BENCHMARK(BM_SweepEventCore)
    ->ArgsProduct(
        {{static_cast<int64_t>(serving::FleetEventCore::Heap),
          static_cast<int64_t>(
              serving::FleetEventCore::LegacyScan)},
         {20000, 100000}})
    ->Unit(benchmark::kMillisecond);

/** The sweep on the compiled GPT-2 stack: every step is costed by
 *  LlmExecutor::step from compiled + simulated blocks. All bucket
 *  shapes compile before the timed run, so it times serving with
 *  warm steps only. The gap keeps the fleet near the headline's
 *  load (the real stack serves far fewer simulated requests per
 *  second than the analytic proxy). */
void
BM_SweepRealStack(benchmark::State &state)
{
    int64_t num_requests = state.range(0);
    runtime::LlmExecutor executor(models::gpt2Config(),
                                  hls::u55c());
    models::BucketPolicy buckets;
    std::vector<runtime::StepGroup> all_shapes;
    for (int64_t len : models::bucketBoundaries(buckets)) {
        all_shapes.push_back(
            {models::bucketedPrefillShapes(len, buckets), 1});
        all_shapes.push_back(
            {models::bucketedDecodeShapes(len, buckets), 1});
    }
    (void)executor.step(all_shapes);

    serving::TraceOptions trace_options = sweepTrace(num_requests);
    trace_options.mean_interarrival_ms = kRealStackGapMs;
    serving::FleetResult result;
    for (auto _ : state) {
        serving::TraceGenerator trace(serving::TraceShape::Poisson,
                                      trace_options);
        serving::ExecutorCostModel cost(executor);
        serving::FleetScheduler fleet(
            sweepFleet(serving::FleetEventCore::Heap), cost);
        result = fleet.run(trace);
    }
    const serving::FleetMetrics &m = result.metrics;
    state.counters["wall_req_per_s"] = benchmark::Counter(
        static_cast<double>(num_requests) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["sim_req_per_s"] = m.servedRequestsPerSecond();
    state.counters["completed"] =
        static_cast<double>(m.completed);
    state.counters["p99_ms"] = m.latencyPercentileMs(99.0);
    state.counters["compiles"] =
        static_cast<double>(executor.compileCount());
}
BENCHMARK(BM_SweepRealStack)
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

} // namespace

BENCHMARK_MAIN();
