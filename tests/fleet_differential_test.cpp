/** @file Differential suite for the fleet's event cores: over 100
 *  seeded (trace, fleet-config, fault-plan) scenarios, the Heap
 *  core must reproduce the LegacyScan oracle bit-for-bit, and
 *  serving a TraceGenerator must reproduce serving the
 *  materialized vector of the same generator. "Bit-for-bit" is
 *  checked on every observable: merged request records,
 *  per-replica step records, rejection and loss logs, every
 *  aggregate counter, the makespan, and the streaming latency
 *  sketch's quantiles. On the calm seeds, a 1-replica fleet must
 *  also reproduce the single-engine Scheduler's steps, outcomes
 *  and makespan. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "serving/cost_model.h"
#include "serving/fleet.h"
#include "serving/scheduler.h"
#include "serving/trace.h"

using namespace streamtensor;
using serving::Request;

namespace {

/** Seed-derived scenario shared by every comparison: varied fleet
 *  shape, balancer, retry budget, deadlines on a fifth of the
 *  seeds, and a dense fault plan (crashes, slowdowns, drains). */
struct Scenario
{
    serving::TraceOptions trace;
    serving::TraceShape shape = serving::TraceShape::Poisson;
    serving::FleetOptions fleet;
};

Scenario
makeScenario(uint64_t seed, bool with_faults)
{
    Scenario s;
    s.shape = seed % 2 == 0 ? serving::TraceShape::Poisson
                            : serving::TraceShape::Bursty;
    s.trace.seed = seed;
    s.trace.num_requests = 32 + static_cast<int64_t>(seed % 33);
    s.trace.mean_interarrival_ms =
        1.0 + static_cast<double>(seed % 5);
    s.trace.min_input_len = 4;
    s.trace.max_input_len = 96;
    s.trace.min_output_len = 1;
    s.trace.max_output_len = 20;
    s.trace.num_priorities = 1 + static_cast<int>(seed % 2);
    if (seed % 3 == 0) {
        s.trace.num_prefix_groups = 2;
        s.trace.shared_prefix_len = 16;
    }
    if (seed % 5 == 0) {
        s.trace.deadline_slack_ms =
            150.0 + 50.0 * static_cast<double>(seed % 4);
    }

    s.fleet.num_replicas = 2 + static_cast<int>(seed % 3);
    s.fleet.replica.max_batch = 2 + static_cast<int64_t>(seed % 5);
    s.fleet.replica.kv_budget_tokens =
        192 + 64 * static_cast<int64_t>(seed % 9);
    s.fleet.replica.max_queue_depth =
        seed % 4 == 0 ? 8 + static_cast<int64_t>(seed % 9) : 0;
    s.fleet.replica.record_steps = true;
    s.fleet.balancer = static_cast<serving::LbPolicy>(seed % 3);
    s.fleet.max_retries = 1 + static_cast<int64_t>(seed % 3);
    s.fleet.retry_backoff_ms = 1.0 + static_cast<double>(seed % 4);
    // A third of the seeds drop records mid-run so the comparison
    // also covers the streaming-sketch path.
    if (seed % 3 == 1) {
        s.fleet.replica.metrics.keep_records =
            serving::MetricsOptions::KeepRecords::Auto;
        s.fleet.replica.metrics.auto_record_limit =
            static_cast<int64_t>(seed % 7);
    }

    if (with_faults) {
        serving::SeededFaultOptions fault_options;
        fault_options.seed = seed * 7 + 1;
        fault_options.num_replicas = s.fleet.num_replicas;
        fault_options.horizon_ms = 400.0;
        fault_options.crash_prob = 0.6;
        fault_options.slow_prob = 0.5;
        fault_options.drain_prob = 0.35;
        s.fleet.faults = serving::seededFaultPlan(fault_options);
        // A quarter of the seeds charge recoveries a weight
        // reload; a sixth also hot-swap a replica mid-run, so the
        // cores are compared across the reload event type too.
        if (seed % 4 == 1)
            s.fleet.recovery_reload_ms =
                20.0 + 10.0 * static_cast<double>(seed % 5);
        if (seed % 6 == 2)
            s.fleet.faults.events.push_back(
                {150.0, static_cast<int>(seed) %
                            s.fleet.num_replicas,
                 serving::FaultKind::Swap, 1.0});
    }
    return s;
}

std::vector<Request>
scenarioTrace(const Scenario &s)
{
    return s.shape == serving::TraceShape::Poisson
               ? serving::poissonTrace(s.trace)
               : serving::burstyTrace(s.trace);
}

serving::FleetResult
runScenario(const Scenario &s, serving::FleetEventCore core,
            bool via_generator)
{
    serving::FleetOptions options = s.fleet;
    options.event_core = core;
    serving::AnalyticCostModel cost;
    serving::FleetScheduler fleet(options, cost);
    if (via_generator) {
        serving::TraceGenerator gen(s.shape, s.trace);
        return fleet.run(gen);
    }
    return fleet.run(scenarioTrace(s));
}

void
expectSameRequests(const std::vector<serving::RequestMetrics> &a,
                   const std::vector<serving::RequestMetrics> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_EQ(a[i].output_len, b[i].output_len);
        EXPECT_EQ(a[i].preemptions, b[i].preemptions);
        EXPECT_EQ(a[i].failovers, b[i].failovers);
        EXPECT_EQ(a[i].replica, b[i].replica);
        EXPECT_EQ(a[i].arrival_ms, b[i].arrival_ms);
        EXPECT_EQ(a[i].first_token_ms, b[i].first_token_ms);
        EXPECT_EQ(a[i].finish_ms, b[i].finish_ms);
    }
}

/** Every observable of the two results must match exactly —
 *  EXPECT_EQ on doubles deliberately: the contract is
 *  bit-identical, not approximately equal. */
void
expectSameResult(const serving::FleetResult &a,
                 const serving::FleetResult &b)
{
    const serving::FleetMetrics &ma = a.metrics;
    const serving::FleetMetrics &mb = b.metrics;
    EXPECT_EQ(ma.completed, mb.completed);
    EXPECT_EQ(ma.rejected_queue_full, mb.rejected_queue_full);
    EXPECT_EQ(ma.rejected_too_long, mb.rejected_too_long);
    EXPECT_EQ(ma.expired_deadline, mb.expired_deadline);
    EXPECT_EQ(ma.rejected_drained, mb.rejected_drained);
    EXPECT_EQ(ma.deadline_misses, mb.deadline_misses);
    EXPECT_EQ(ma.requests_lost, mb.requests_lost);
    EXPECT_EQ(ma.failovers, mb.failovers);
    EXPECT_EQ(ma.crashes, mb.crashes);
    EXPECT_EQ(ma.recoveries, mb.recoveries);
    EXPECT_EQ(ma.drains, mb.drains);
    EXPECT_EQ(ma.degrades, mb.degrades);
    EXPECT_EQ(ma.swaps, mb.swaps);
    EXPECT_EQ(ma.reloads, mb.reloads);
    EXPECT_EQ(ma.reload_ms_total, mb.reload_ms_total);
    EXPECT_EQ(ma.weight_stall_ms, mb.weight_stall_ms);
    EXPECT_EQ(ma.slowdowns, mb.slowdowns);
    EXPECT_EQ(ma.aborted_steps, mb.aborted_steps);
    EXPECT_EQ(ma.preemptions, mb.preemptions);
    EXPECT_EQ(ma.total_output_tokens, mb.total_output_tokens);
    EXPECT_EQ(ma.steps, mb.steps);
    EXPECT_EQ(ma.makespan_ms, mb.makespan_ms);
    EXPECT_EQ(ma.replica_up_ms, mb.replica_up_ms);
    EXPECT_EQ(ma.records_complete, mb.records_complete);
    EXPECT_EQ(ma.latency_sketch.count(), mb.latency_sketch.count());
    for (double p : {50.0, 90.0, 99.0, 100.0})
        EXPECT_EQ(ma.latency_sketch.quantile(p),
                  mb.latency_sketch.quantile(p));

    expectSameRequests(ma.requests, mb.requests);

    ASSERT_EQ(a.rejected.size(), b.rejected.size());
    for (size_t i = 0; i < a.rejected.size(); ++i) {
        EXPECT_EQ(a.rejected[i].id, b.rejected[i].id);
        EXPECT_EQ(a.rejected[i].reason, b.rejected[i].reason);
        EXPECT_EQ(a.rejected[i].at_ms, b.rejected[i].at_ms);
    }
    ASSERT_EQ(a.lost.size(), b.lost.size());
    for (size_t i = 0; i < a.lost.size(); ++i) {
        EXPECT_EQ(a.lost[i].id, b.lost[i].id);
        EXPECT_EQ(a.lost[i].at_ms, b.lost[i].at_ms);
        EXPECT_EQ(a.lost[i].attempts, b.lost[i].attempts);
    }

    EXPECT_EQ(a.hit_step_limit, b.hit_step_limit);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (size_t r = 0; r < a.replicas.size(); ++r) {
        const auto &sa = a.replicas[r].steps;
        const auto &sb = b.replicas[r].steps;
        ASSERT_EQ(sa.size(), sb.size());
        for (size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].prefill_ids, sb[i].prefill_ids);
            EXPECT_EQ(sa[i].decode_ids, sb[i].decode_ids);
            EXPECT_EQ(sa[i].start_ms, sb[i].start_ms);
            EXPECT_EQ(sa[i].step_ms, sb[i].step_ms);
        }
        expectSameRequests(a.replicas[r].metrics.requests,
                           b.replicas[r].metrics.requests);
    }
}

class FleetDifferential : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(FleetDifferential, HeapMatchesLegacyUnderFaults)
{
    Scenario s = makeScenario(GetParam(), true);
    expectSameResult(
        runScenario(s, serving::FleetEventCore::Heap, false),
        runScenario(s, serving::FleetEventCore::LegacyScan,
                    false));
}

TEST_P(FleetDifferential, HeapMatchesLegacyCalm)
{
    Scenario s = makeScenario(GetParam(), false);
    expectSameResult(
        runScenario(s, serving::FleetEventCore::Heap, false),
        runScenario(s, serving::FleetEventCore::LegacyScan,
                    false));
}

TEST_P(FleetDifferential, GeneratorMatchesVector)
{
    Scenario s = makeScenario(GetParam(), true);
    expectSameResult(
        runScenario(s, serving::FleetEventCore::Heap, false),
        runScenario(s, serving::FleetEventCore::Heap, true));
}

/** A calm 1-replica fleet is the single-engine Scheduler: same
 *  steps, outcomes and makespan on every seed, across Paged and
 *  Reserve admission, queue caps and deadlines. Known gaps (see
 *  scheduler.h): the fleet ignores drain_at_ms, and stamps
 *  ingest-time rejections at the arrival instant. */
TEST_P(FleetDifferential, SingleReplicaMatchesScheduler)
{
    Scenario s = makeScenario(GetParam(), false);
    s.fleet.num_replicas = 1;
    if (GetParam() % 2 == 1)
        s.fleet.replica.admission = serving::KvAdmission::Reserve;

    serving::AnalyticCostModel fleet_cost;
    serving::FleetResult fleet =
        serving::FleetScheduler(s.fleet, fleet_cost)
            .run(scenarioTrace(s));
    serving::AnalyticCostModel single_cost;
    serving::ServingResult single =
        serving::Scheduler(s.fleet.replica, single_cost)
            .run(scenarioTrace(s));

    const serving::ServingMetrics &ms = single.metrics;
    const serving::FleetMetrics &mf = fleet.metrics;
    EXPECT_EQ(ms.completed, mf.completed);
    EXPECT_EQ(ms.rejected_queue_full, mf.rejected_queue_full);
    EXPECT_EQ(ms.rejected_too_long, mf.rejected_too_long);
    EXPECT_EQ(ms.expired_deadline, mf.expired_deadline);
    EXPECT_EQ(ms.rejected_drained, mf.rejected_drained);
    EXPECT_EQ(ms.deadline_misses, mf.deadline_misses);
    EXPECT_EQ(ms.preemptions, mf.preemptions);
    EXPECT_EQ(ms.total_output_tokens, mf.total_output_tokens);
    EXPECT_EQ(ms.steps, mf.steps);
    EXPECT_EQ(ms.makespan_ms, mf.makespan_ms);
    EXPECT_EQ(single.hit_step_limit, fleet.hit_step_limit);
    EXPECT_EQ(mf.requests_lost, 0);

    // The two logs are in different orders ((arrival, id) here,
    // (at_ms, id) in the fleet): compare by id. The Scheduler
    // ingests arrivals only between steps, so an ingest-time
    // rejection is stamped at the end of the step in flight; the
    // fleet stamps the arrival instant (RejectedRequest::at_ms).
    auto byId = [](std::vector<serving::RejectedRequest> log) {
        std::sort(log.begin(), log.end(),
                  [](const auto &a, const auto &b) {
                      return a.id < b.id;
                  });
        return log;
    };
    std::vector<serving::RejectedRequest> rs = byId(single.rejected);
    std::vector<serving::RejectedRequest> rf = byId(fleet.rejected);
    ASSERT_EQ(rs.size(), rf.size());
    for (size_t i = 0; i < rs.size(); ++i) {
        EXPECT_EQ(rs[i].id, rf[i].id);
        EXPECT_EQ(rs[i].reason, rf[i].reason);
        if (rs[i].reason == serving::RejectReason::QueueFull) {
            EXPECT_EQ(rf[i].at_ms, rf[i].arrival_ms);
            EXPECT_GE(rs[i].at_ms, rf[i].at_ms);
        } else {
            EXPECT_EQ(rs[i].at_ms, rf[i].at_ms);
        }
    }

    ASSERT_EQ(fleet.replicas.size(), 1u);
    const auto &sf = fleet.replicas[0].steps;
    const auto &ss = single.steps;
    ASSERT_EQ(ss.size(), sf.size());
    for (size_t i = 0; i < ss.size(); ++i) {
        EXPECT_EQ(ss[i].start_ms, sf[i].start_ms);
        EXPECT_EQ(ss[i].step_ms, sf[i].step_ms);
        EXPECT_EQ(ss[i].prefill_ids, sf[i].prefill_ids);
        EXPECT_EQ(ss[i].decode_ids, sf[i].decode_ids);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDifferential,
                         ::testing::Range<uint64_t>(0, 100));

} // namespace
