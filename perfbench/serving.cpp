/**
 * @file
 * The two serving workloads.
 *
 * serve_gpt2: the compiled GPT-2 stack (ExecutorCostModel) behind a
 * 4-replica LeastKvLoad fleet with paged KV and shared prefixes,
 * fed an open-loop Poisson trace of 100k requests at a 65 ms mean
 * gap (about 79% of its simulated capacity of ~19.5 req/s). Set-up
 * compiles every bucket shape, so the timed phase is pure serving.
 *
 * sweep_faults: the analytic cost model (runtime, compiler and
 * simulator bypassed) behind a 4-replica fleet serving 1M bursty
 * requests with unshared prompts, a tight KV budget (preemptions) and
 * deadlines, under a seeded fault plan whose crash reload window
 * comes from a gp3 weight-stream plan. Streaming metrics only.
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <tuple>

#include "models/bucketing.h"
#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/trace.h"
#include "serving/weights.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace streamtensor;

/** Step-cost decorator for traced runs: counts and times every
 *  stepMs() call at the serving/runtime boundary. */
class TimedCost : public serving::StepCostModel
{
  public:
    TimedCost(serving::StepCostModel &inner, Aggregate &aggregate,
              std::vector<double> *samples_us)
        : inner_(inner), aggregate_(aggregate), samples_us_(samples_us)
    {}

    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override
    {
        int64_t start = nowNs();
        double ms = inner_.stepMs(groups);
        int64_t ns = nowNs() - start;
        ++aggregate_.count;
        aggregate_.total_ns += ns;
        if (samples_us_)
            samples_us_->push_back(static_cast<double>(ns) * 1e-3);
        return ms;
    }

    bool concurrentSafe() const override
    {
        return inner_.concurrentSafe();
    }

  private:
    serving::StepCostModel &inner_;
    Aggregate &aggregate_;
    std::vector<double> *samples_us_;
};

/** The simulated outcome of one fleet run, as the benchmark reports
 *  it. Every field is simulated, so two runs of one trace must agree
 *  exactly (operator== is the determinism check). */
struct FleetSummary
{
    int64_t sent = 0, completed = 0, shed = 0, expired = 0, lost = 0;
    bool hit_step_limit = false;
    double latency_p50 = 0, ttft_p50 = 0, ttft_p99 = 0;
    double tbt_p50 = 0, tbt_p99 = 0;
    double decode_tok_s = 0, slo = 0;
    int64_t steps = 0, max_queue_depth = 0, preemptions = 0;
    double mean_batch = 0, page_util = 0, prefix_hit_rate = 0;
    double imbalance = 0;
    int64_t failovers = 0, aborted_steps = 0, reloads = 0;
    double uptime = 0, reload_ms = 0;
    int64_t sketch_items = 0;

    bool conserved() const
    {
        return sent == completed + shed + expired + lost;
    }

    bool operator==(const FleetSummary &o) const
    {
        auto tie = [](const FleetSummary &s) {
            return std::make_tuple(
                s.sent, s.completed, s.shed, s.expired, s.lost,
                s.hit_step_limit, s.latency_p50, s.ttft_p50,
                s.ttft_p99, s.tbt_p50, s.tbt_p99, s.decode_tok_s,
                s.slo, s.steps, s.max_queue_depth, s.preemptions,
                s.mean_batch, s.page_util, s.prefix_hit_rate,
                s.imbalance, s.failovers, s.aborted_steps, s.reloads,
                s.uptime, s.reload_ms, s.sketch_items);
        };
        return tie(*this) == tie(o);
    }
};

/** SLO limits per request, measured from arrival. */
struct SloLimits
{
    double ttft_ms = 0.0;
    double tbt_ms = 0.0;
};

FleetSummary
summarize(const serving::FleetResult &result, int64_t sent,
          const SloLimits &slo)
{
    const serving::FleetMetrics &m = result.metrics;
    FleetSummary s;
    s.sent = sent;
    s.completed = m.completed;
    s.shed = m.rejected_queue_full + m.rejected_too_long +
             m.rejected_drained;
    s.expired = m.expired_deadline;
    s.lost = m.requests_lost;
    s.hit_step_limit = result.hit_step_limit;
    s.latency_p50 = m.latencyPercentileMs(50.0);
    s.steps = m.steps;
    s.preemptions = m.preemptions;
    s.failovers = m.failovers;
    s.aborted_steps = m.aborted_steps;
    s.reloads = m.reloads;
    s.reload_ms = m.reload_ms_total;
    s.uptime = m.uptimeFraction();
    s.sketch_items = m.latency_sketch.retainedItems();

    int64_t batched = 0, page_steps = 0, page_capacity = 0;
    int64_t hits = 0, misses = 0, decode_gaps = 0;
    double decode_ms = 0.0, max_done = 0.0, sum_done = 0.0;
    serving::QuantileSketch ttft_sketch;
    for (const auto &r : result.replicas) {
        const serving::ServingMetrics &rm = r.metrics;
        batched += rm.total_batched_seqs;
        page_steps += rm.page_step_sum;
        page_capacity += rm.steps * rm.pool_pages;
        hits += rm.prefix_hit_pages;
        misses += rm.prefix_miss_pages;
        decode_gaps += rm.decode_gaps;
        decode_ms += rm.decode_sum_ms;
        s.max_queue_depth = std::max(s.max_queue_depth,
                                     rm.max_queue_depth);
        max_done = std::max(max_done, double(rm.completed));
        sum_done += double(rm.completed);
        ttft_sketch.merge(rm.ttft_sketch);
    }
    s.mean_batch = s.steps ? double(batched) / double(s.steps) : 0.0;
    s.page_util = page_capacity ? double(page_steps) /
                                      double(page_capacity)
                                : 0.0;
    s.prefix_hit_rate =
        hits + misses ? double(hits) / double(hits + misses) : 0.0;
    s.imbalance = sum_done > 0.0
                      ? max_done / (sum_done / result.replicas.size())
                      : 0.0;
    s.decode_tok_s =
        decode_ms > 0.0 ? double(decode_gaps) / decode_ms * 1e3 : 0.0;

    if (m.records_complete) {
        // Exact per-request figures, and the joint TTFT/TBT SLO.
        std::vector<double> ttft, tbt;
        int64_t met = 0;
        for (const auto &r : m.requests) {
            ttft.push_back(r.ttftMs());
            if (r.output_len > 1)
                tbt.push_back(r.tbtMs());
            met += r.ttftMs() <= slo.ttft_ms && r.tbtMs() <= slo.tbt_ms;
        }
        s.ttft_p50 = nearestRank(ttft, 50);
        s.ttft_p99 = nearestRank(ttft, 99);
        s.tbt_p50 = nearestRank(tbt, 50);
        s.tbt_p99 = nearestRank(tbt, 99);
        s.slo = double(met) / double(sent);
    } else {
        // Streaming metrics: TTFT from the merged replica sketches;
        // no per-request TBT exists, so the SLO is each request's own
        // deadline (completed in time over sent).
        s.ttft_p50 = ttft_sketch.quantile(50.0).value_or(0.0);
        s.ttft_p99 = ttft_sketch.quantile(99.0).value_or(0.0);
        s.slo = double(m.completed - m.deadline_misses) / double(sent);
    }
    return s;
}

void
fillEndToEnd(Report &report, const std::vector<double> &setups,
             const std::vector<double> &rates, const FleetSummary &s)
{
    printSamples("setup_s", setups);
    printSamples("host_ops_per_s", rates);
    auto &e2e = report.end_to_end;
    e2e["setup_s"] = {median(setups), "s",
                      static_cast<int64_t>(setups.size())};
    e2e["host_ops_per_s"] = {median(rates), "1/s",
                             static_cast<int64_t>(rates.size())};
    e2e["peak_rss_mb"] = {peakRssMb(), "MB"};
    e2e["ok_share"] = {double(s.completed) / double(s.sent), "share",
                       s.sent};
    e2e["sim_latency_p50_ms"] = {s.latency_p50, "sim_ms", s.completed};
    e2e["sim_ttft_p50_ms"] = {s.ttft_p50, "sim_ms", s.completed};
    e2e["sim_ttft_p99_ms"] = {s.ttft_p99, "sim_ms", s.completed};
    e2e["sim_decode_tok_s"] = {s.decode_tok_s, "sim_tok/s", s.completed};
    e2e["sim_slo_attainment"] = {s.slo, "share", s.sent};
}

/** Time draining a generator identical to the one a pass serves, so
 *  the load generator's share of host_ops_per_s is known. */
void
fillTraceLayer(Report &report, Tracer &tracer,
               serving::TraceShape shape,
               const serving::TraceOptions &options)
{
    int64_t span = tracer.begin("trace.gen");
    serving::TraceGenerator gen(shape, options);
    int64_t n = 0;
    while (!gen.exhausted()) {
        gen.next();
        ++n;
    }
    tracer.end(span);
    double s = tracer.totalSeconds("trace.gen");
    report.per_layer["trace.gen_s"] = {s, "s"};
    report.per_layer["trace.req_per_s"] = {double(n) / s, "1/s"};
}

void
printSummary(const FleetSummary &s)
{
    std::printf("fleet sent=%lld completed=%lld shed=%lld expired=%lld "
                "lost=%lld steps=%lld preemptions=%lld failovers=%lld "
                "reloads=%lld mean_batch=%.3f ttft_p50=%.3f "
                "ttft_p99=%.3f latency_p50=%.3f tbt_p50=%.3f "
                "tbt_p99=%.3f slo=%.4f uptime=%.4f (simulated ms)\n",
                static_cast<long long>(s.sent),
                static_cast<long long>(s.completed),
                static_cast<long long>(s.shed),
                static_cast<long long>(s.expired),
                static_cast<long long>(s.lost),
                static_cast<long long>(s.steps),
                static_cast<long long>(s.preemptions),
                static_cast<long long>(s.failovers),
                static_cast<long long>(s.reloads), s.mean_batch, s.ttft_p50,
                s.ttft_p99, s.latency_p50, s.tbt_p50, s.tbt_p99, s.slo,
                s.uptime);
}

/** Timed passes of one fleet configuration over one trace. */
struct PassLoop
{
    std::vector<FleetSummary> summaries;
    std::vector<double> rates;         ///< requests per host second
    double fleet_s = 0.0;              ///< Σ fleet.run seconds
    int64_t step_calls = 0;            ///< traced only
    double step_s = 0.0;               ///< traced only
    std::vector<double> step_us;       ///< traced, when sampled
    double timed_s = 0.0;
};

/** Serving-layer metrics; self time is fleet run time minus the time
 *  spent inside the step-cost model, per pass. */
void
fillServingLayer(Report &report, const FleetSummary &s,
                 const PassLoop &loop, double passes)
{
    auto &pl = report.per_layer;
    pl["serving.self_s"] = {(loop.fleet_s - loop.step_s) / passes, "s"};
    pl["serving.steps"] = {double(s.steps), "count"};
    pl["serving.steps_per_s"] = {double(s.steps) * passes / loop.fleet_s,
                                 "1/s"};
    pl["serving.mean_batch"] = {s.mean_batch, "seqs"};
    pl["serving.max_queue_depth"] = {double(s.max_queue_depth), "count"};
    pl["serving.page_util"] = {s.page_util, "share"};
    pl["serving.prefix_hit_rate"] = {s.prefix_hit_rate, "share"};
    pl["serving.preemptions"] = {double(s.preemptions), "count"};
    pl["serving.replica_imbalance"] = {s.imbalance, "ratio"};
    pl["serving.tbt_p50_ms"] = {s.tbt_p50, "sim_ms"};
    pl["serving.tbt_p99_ms"] = {s.tbt_p99, "sim_ms"};
    pl["serving.failovers"] = {double(s.failovers), "count"};
    pl["serving.aborted_step_share"] = {
        s.steps + s.aborted_steps
            ? double(s.aborted_steps) / double(s.steps + s.aborted_steps)
            : 0.0,
        "share"};
    pl["serving.requests_lost"] = {double(s.lost), "count"};
    pl["serving.expired"] = {double(s.expired), "count"};
    pl["serving.uptime_fraction"] = {s.uptime, "share"};
    pl["serving.reloads"] = {double(s.reloads), "count"};
    pl["serving.reload_ms"] = {s.reload_ms, "sim_ms"};
    pl["serving.sketch_items"] = {double(s.sketch_items), "count"};
}

/** Run passes until @p seconds elapse (at least @p min_passes). The
 *  fleet is rebuilt each pass over a fresh, identical generator. */
PassLoop
runPasses(const RunConfig &config, Tracer &tracer,
          const serving::FleetOptions &fleet_options,
          serving::StepCostModel &cost, serving::TraceShape shape,
          const serving::TraceOptions &trace_options,
          const SloLimits &slo, const char *step_name,
          bool sample_steps, size_t min_passes, Report &report)
{
    PassLoop loop;
    int64_t start = nowNs();
    while (loop.summaries.size() < min_passes ||
           secondsSince(start) < config.seconds) {
        ScopedSpan pass_span(tracer, "bench.pass");
        serving::TraceGenerator trace(shape, trace_options);
        int64_t fleet_span = tracer.begin("serving.fleet_run");
        Aggregate *steps = tracer.aggregate(step_name);
        std::unique_ptr<TimedCost> timed;
        if (steps)
            timed = std::make_unique<TimedCost>(
                cost, *steps, sample_steps ? &loop.step_us : nullptr);
        serving::FleetScheduler fleet(
            fleet_options, timed ? *timed : cost);
        int64_t run_start = nowNs();
        serving::FleetResult result;
        bool threw = false;
        try {
            result = fleet.run(trace);
        } catch (const std::exception &e) {
            threw = true;
            report.check(false, std::string("fleet run threw: ") +
                                    e.what());
        }
        double run_s = secondsSince(run_start);
        tracer.end(fleet_span);

        int64_t sent = trace_options.num_requests;
        report.attempted += sent;
        if (threw) {
            report.failed += sent;
            break;
        }
        loop.fleet_s += run_s;
        loop.rates.push_back(double(sent) / run_s);
        if (steps) {
            loop.step_calls += steps->count;
            loop.step_s += double(steps->total_ns) * 1e-9;
        }
        FleetSummary s = summarize(result, sent, slo);
        // A request neither completed nor accounted as shed, expired
        // or lost is a program failure; so is the step limit.
        int64_t accounted = s.completed + s.shed + s.expired + s.lost;
        report.failed += std::max<int64_t>(0, sent - accounted);
        report.check(s.conserved(),
                     "conservation: sent != completed + rejected + "
                     "expired + lost");
        report.check(!s.hit_step_limit, "fleet hit its step limit");
        loop.summaries.push_back(s);
    }
    loop.timed_s = secondsSince(start);
    return loop;
}

} // namespace

Report
runServeGpt2(const RunConfig &config, Tracer &tracer)
{
    Report report;
    serving::TraceOptions trace_options;
    trace_options.num_requests = 100000;
    trace_options.seed = config.seed;
    trace_options.mean_interarrival_ms = 65.0;
    trace_options.min_input_len = 8;
    trace_options.max_input_len = 192;
    trace_options.min_output_len = 4;
    trace_options.max_output_len = 32;
    trace_options.num_prefix_groups = 8;
    trace_options.shared_prefix_len = 48;

    serving::FleetOptions fleet_options;
    fleet_options.num_replicas = 4;
    fleet_options.balancer = serving::LbPolicy::LeastKvLoad;
    fleet_options.replica.admission = serving::KvAdmission::Paged;
    fleet_options.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Always;
    const SloLimits slo{1000.0, 150.0};

    // Set-up: a fresh executor with every bucket shape compiled and
    // simulated. Repeated; the median is setup_s.
    std::unique_ptr<runtime::LlmExecutor> executor;
    std::vector<double> setups;
    for (int rep = 0; rep < 5; ++rep) {
        int64_t start = nowNs();
        executor = std::make_unique<runtime::LlmExecutor>(
            models::gpt2Config(), hls::u55c());
        ScopedSpan warm(tracer, "runtime.warm");
        for (int64_t len :
             models::bucketBoundaries(fleet_options.replica.buckets)) {
            executor->block(models::bucketedPrefillShapes(
                len, fleet_options.replica.buckets));
            executor->block(models::bucketedDecodeShapes(
                len, fleet_options.replica.buckets));
        }
        setups.push_back(secondsSince(start));
    }
    int64_t warm_compiles = executor->compileCount();

    serving::ExecutorCostModel cost(*executor);
    PassLoop loop = runPasses(config, tracer, fleet_options, cost,
                              serving::TraceShape::Poisson,
                              trace_options, slo, "runtime.step", true,
                              2, report);
    int64_t timed_misses = executor->compileCount() - warm_compiles;

    // Output checks (untimed).
    report.check(timed_misses == 0,
                 "the timed phase compiled a block shape");
    report.check(!cost.sawDeadlock(), "a costed block deadlocked");
    for (const auto &s : loop.summaries)
        report.check(s == loop.summaries.front(),
                     "simulated metrics differ between passes");
    if (loop.summaries.empty())
        return report;
    const FleetSummary &s = loop.summaries.front();
    printSummary(s);
    std::printf("passes %zu in %.3f s; %lld requests per pass; %lld "
                "bucket shapes warmed\n",
                loop.summaries.size(), loop.timed_s,
                static_cast<long long>(s.sent),
                static_cast<long long>(warm_compiles));
    fillEndToEnd(report, setups, loop.rates, s);
    if (!config.trace)
        return report;

    auto &pl = report.per_layer;
    double n = double(loop.summaries.size());
    pl["runtime.warm_s"] = {median(setups), "s"};
    pl["runtime.step_calls"] = {double(loop.step_calls) / n, "count"};
    pl["runtime.step_s"] = {loop.step_s / n, "s"};
    pl["runtime.step_us_p50"] = {nearestRank(loop.step_us, 50), "us"};
    pl["runtime.step_us_p99"] = {nearestRank(loop.step_us, 99), "us"};
    pl["runtime.timed_compile_misses"] = {double(timed_misses), "count"};
    pl["runtime.compile_misses"] = {double(warm_compiles), "count"};
    auto self = tracer.selfSecondsByLayer("bench.pass");
    fillServingLayer(report, s, loop, n);
    pl["runtime.self_s"] = {self["runtime"] / n, "s"};
    pl["bench.self_s"] = {self["bench"] / n, "s"};
    pl["bench.traced_ops_per_s"] = {median(loop.rates), "1/s"};
    fillTraceLayer(report, tracer, serving::TraceShape::Poisson,
                   trace_options);
    return report;
}

Report
runSweepFaults(const RunConfig &config, Tracer &tracer)
{
    Report report;
    serving::TraceOptions trace_options;
    trace_options.num_requests = 1000000;
    trace_options.seed = config.seed;
    trace_options.mean_interarrival_ms = 4.5;
    trace_options.min_input_len = 4;
    trace_options.max_input_len = 64;
    trace_options.min_output_len = 1;
    trace_options.max_output_len = 16;
    trace_options.deadline_slack_ms = 800.0;
    trace_options.burst_period_ms = 2000.0;
    trace_options.burst_duty = 0.25;
    trace_options.burst_factor = 3.0;

    serving::FleetOptions fleet_options;
    fleet_options.num_replicas = 4;
    fleet_options.balancer = serving::LbPolicy::LeastKvLoad;
    fleet_options.replica.max_batch = 8;
    fleet_options.replica.kv_budget_tokens = 384;
    fleet_options.replica.max_steps =
        std::numeric_limits<int64_t>::max();
    fleet_options.replica.metrics.keep_records =
        serving::MetricsOptions::KeepRecords::Never;
    const SloLimits slo{}; // deadlines are the SLO here

    // Set-up: the gp3 weight-stream plan that sets the reload window,
    // and a fault plan of many short seeded segments (so every seed
    // sees a similar fault mix) plus one scripted hot swap.
    // Repeated; the median is setup_s.
    std::vector<double> setups, plan_s;
    double stream_ms = 0.0;
    for (int rep = 0; rep < 15; ++rep) {
        int64_t start = nowNs();
        int64_t plan_span = tracer.begin("weights.plan");
        int64_t plan_start = nowNs();
        serving::WeightStreamPlan plan =
            serving::WeightStreamer().plan(
                serving::ModelArtifact::fromConfig(models::gpt2Config()));
        plan_s.push_back(secondsSince(plan_start));
        tracer.end(plan_span);
        stream_ms = plan.streamMs();
        fleet_options.recovery_reload_ms = stream_ms;

        // The trace's expected span: bursts multiply the base rate by
        // burst_factor for burst_duty of the time.
        const serving::TraceOptions &t = trace_options;
        const double horizon_ms =
            t.num_requests * t.mean_interarrival_ms /
            (t.burst_duty * t.burst_factor + 1.0 - t.burst_duty);
        const int segments = 1000;
        const double segment_ms = horizon_ms / segments;
        fleet_options.faults.events.clear();
        for (int k = 0; k < segments; ++k) {
            serving::SeededFaultOptions fo;
            fo.seed = config.seed * 1000003ULL + k;
            fo.num_replicas = fleet_options.num_replicas;
            fo.horizon_ms = segment_ms;
            fo.crash_prob = 0.25;
            fo.slow_prob = 0.5;
            fo.drain_prob = 0.25;
            for (auto e : serving::seededFaultPlan(fo).events) {
                e.at_ms += k * segment_ms;
                fleet_options.faults.events.push_back(e);
            }
        }
        fleet_options.faults.events.push_back(
            {0.5 * horizon_ms, 1, serving::FaultKind::Swap, 1.0});
        setups.push_back(secondsSince(start));
    }

    serving::AnalyticCostModel cost;
    PassLoop loop = runPasses(config, tracer, fleet_options, cost,
                              serving::TraceShape::Bursty,
                              trace_options, slo, "serving.analytic_step",
                              false, 1, report);
    if (loop.summaries.empty())
        return report;

    // Output checks (untimed): every pass agrees, and a prefix of the
    // trace served by the LegacyScan oracle core equals the Heap core.
    for (const auto &s : loop.summaries)
        report.check(s == loop.summaries.front(),
                     "simulated metrics differ between passes");
    {
        serving::TraceOptions prefix = trace_options;
        prefix.num_requests = 20000;
        FleetSummary cores[2];
        const serving::FleetEventCore kinds[2] = {
            serving::FleetEventCore::Heap,
            serving::FleetEventCore::LegacyScan};
        for (int c = 0; c < 2; ++c) {
            serving::FleetOptions o = fleet_options;
            o.event_core = kinds[c];
            serving::TraceGenerator trace(serving::TraceShape::Bursty,
                                          prefix);
            serving::FleetScheduler fleet(o, cost);
            cores[c] =
                summarize(fleet.run(trace), prefix.num_requests, slo);
        }
        report.check(cores[0] == cores[1],
                     "LegacyScan and Heap cores disagree on the trace "
                     "prefix");
        std::printf("check legacy_scan prefix of %lld requests: %s\n",
                    static_cast<long long>(prefix.num_requests),
                    cores[0] == cores[1] ? "match" : "MISMATCH");
    }

    const FleetSummary &s = loop.summaries.front();
    printSummary(s);
    std::printf("passes %zu in %.3f s; %lld requests per pass; reload "
                "window %.3f ms; %zu fault events\n",
                loop.summaries.size(), loop.timed_s,
                static_cast<long long>(s.sent), stream_ms,
                fleet_options.faults.events.size());
    fillEndToEnd(report, setups, loop.rates, s);
    if (!config.trace)
        return report;

    auto &pl = report.per_layer;
    double n = double(loop.summaries.size());
    auto self = tracer.selfSecondsByLayer("bench.pass");
    fillServingLayer(report, s, loop, n);
    pl["serving.cost_model_calls"] = {double(loop.step_calls) / n,
                                      "count"};
    pl["serving.cost_model_s"] = {loop.step_s / n, "s"};
    pl["weights.plan_s"] = {median(plan_s), "s"};
    pl["weights.stream_ms"] = {stream_ms, "sim_ms"};
    pl["bench.self_s"] = {self["bench"] / n, "s"};
    pl["bench.traced_ops_per_s"] = {median(loop.rates), "1/s"};
    fillTraceLayer(report, tracer, serving::TraceShape::Bursty,
                   trace_options);
    return report;
}

} // namespace perfbench
