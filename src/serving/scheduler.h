/**
 * @file
 * Continuous-batching serving scheduler: a discrete-event
 * simulator that drives an accelerator cost model with batched
 * engine steps, the serving-side counterpart of the paper's
 * single-request re-triggered block (§6.1).
 *
 * Model, in vLLM/Orca terms with dataflow-accelerator constraints:
 *  - Iteration-level (continuous) batching: every step runs all
 *    resident sequences; new requests join at the next step
 *    boundary as prefill members — no waiting for the batch to
 *    drain.
 *  - Bucketed shapes: batch members are grouped by their bucketed
 *    BlockShapes (models::BucketPolicy) so the compile cache stays
 *    small; each group is one accelerator trigger per layer whose
 *    members stream back-to-back with weights resident.
 *  - KV admission, two policies (KvAdmission):
 *      * Paged (default): the KV budget is a serving::KvPool of
 *        fixed-size pages. A request is admitted when its
 *        *current* context fits, acquires pages on demand as it
 *        decodes, and shares prefix pages with other requests
 *        naming the same prompt prefix. On allocation pressure a
 *        resident sequence is preempted back to the queue
 *        (lowest priority class first, then most recently
 *        admitted) and recomputes its KV when readmitted.
 *      * Reserve: the PR-4 conservative baseline — a request
 *        reserves its *final* bucketed context at admission and
 *        holds it to completion; no preemption ever. Kept as the
 *        measurable before/after comparison point.
 *  - Strict head-of-line admission: the queue's best request (by
 *    priority class, FIFO within class) is admitted or nothing is
 *    — later smaller requests never jump a blocked head, which
 *    makes FIFO fairness exact and starvation impossible *within
 *    a priority class*. Across classes the policy is strict
 *    priority: sustained higher-class traffic can hold back lower
 *    classes indefinitely, by design. Preempted requests re-enter
 *    at the front of their class (their arrival precedes
 *    everything still queued there).
 *
 * **Context-length convention.** A sequence that has produced
 * `g` output tokens and runs one more step attends over
 * `input_len + g` tokens: the prompt (input_len), the g - 1
 * previously cached output tokens, and the current query token,
 * whose KV slot is written during the step. That expression is
 * used uniformly for decode shapes, recompute-prefill shapes, and
 * page demand; the maximum context of a request's lifetime is
 * therefore `input_len + output_len - 1` (its last decode step).
 * The previous `input_len + generated + 1` convention over-counted
 * by one and pushed sequences into the next shape bucket one step
 * early at exact bucket boundaries, splitting their step group and
 * costing a spurious compile (regression-tested at a boundary).
 *
 * All time is simulated milliseconds; the scheduler contains no
 * wall-clock, randomness, or pointer-order dependence, so a trace
 * replays to bit-identical step compositions and metrics.
 */

#ifndef STREAMTENSOR_SERVING_SCHEDULER_H
#define STREAMTENSOR_SERVING_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "models/bucketing.h"
#include "runtime/executor.h"
#include "serving/kv_pool.h"
#include "serving/metrics.h"
#include "serving/queue.h"
#include "serving/request.h"
#include "serving/weights.h"

namespace streamtensor {
namespace serving {

class ArrivalCursor;
class TraceGenerator;

/** Cost oracle for one engine step. Implementations must be
 *  deterministic pure functions of the shape groups (the replay
 *  suite depends on it) and must return a strictly positive
 *  cost so simulated time advances. */
class StepCostModel
{
  public:
    virtual ~StepCostModel() = default;

    /** Cost in milliseconds of one full model pass over the given
     *  shape groups. */
    virtual double
    stepMs(const std::vector<runtime::StepGroup> &groups) = 0;

    // No caller; kept for perfbench's TimedCost, which overrides it.
    virtual bool concurrentSafe() const { return false; }
};

/** How the scheduler charges requests against the KV budget. */
enum class KvAdmission
{
    /** Block-granular paged pool: admit on current need, grow on
     *  demand, preempt under pressure, share prefixes. */
    Paged,

    /** Conservative full reservation of the final bucketed
     *  context; never preempts (the PR-4 baseline). */
    Reserve,
};

/** Cold-start weight streaming (weights.h). With a non-empty
 *  plan, the engine's weights are still in flight from storage
 *  when serving begins: every step launched before the plan's
 *  end_ms is gated on residency —
 *
 *   - overlap (default): the step's compute is spread across the
 *     plan's layers and each layer fires at
 *     max(previous layer's end, its ready watermark), so first
 *     prefills overlap the stream and only layers that outrun
 *     their weights stall (WeightStreamPlan::gatedComputeEndMs);
 *   - !overlap: the whole step waits for end_ms — the
 *     load-then-serve baseline the bench compares against.
 *
 *  The added wait lands in StepRecord::weights_wait_ms and
 *  accumulates into ServingMetrics::weight_stall_ms; steps
 *  launched after end_ms are untouched, so a warm run and an
 *  empty plan are bit-identical. */
struct ColdStartOptions
{
    WeightStreamPlan plan; ///< empty = warm start
    bool overlap = true;
};

/** Scheduler knobs. */
struct SchedulerOptions
{
    /** Max sequences resident in one step. */
    int64_t max_batch = 8;

    /** Total KV tokens the accelerator can hold. Under Paged
     *  admission this is carved into kv_budget_tokens /
     *  page_tokens physical pages; under Reserve each admitted
     *  request holds bucketLen(max context) of it to
     *  completion. */
    int64_t kv_budget_tokens = 4096;

    /** KV admission policy. */
    KvAdmission admission = KvAdmission::Paged;

    /** Page size of the paged pool (Paged only). */
    int64_t page_tokens = 16;

    /** Request-queue capacity; arrivals beyond it are rejected
     *  (0 = unbounded). Preempted requests re-enter exempt from
     *  the bound. */
    int64_t max_queue_depth = 0;

    /** Shape quantisation shared with the compile cache. */
    models::BucketPolicy buckets;

    /** Record per-step composition (replay tests, debugging). */
    bool record_steps = false;

    /** Per-request record retention (metrics.h): full records by
     *  default up to MetricsOptions::auto_record_limit
     *  completions, streaming sketches beyond. */
    MetricsOptions metrics;

    /** Safety valve against a miscosted model wedging the event
     *  loop; a run hitting it reports hit_step_limit. */
    int64_t max_steps = 1 << 22;

    /** Simulated time at which the scheduler enters drain mode;
     *  negative = never. From the first event-loop iteration at or
     *  after this instant, every queued request is shed as
     *  RejectReason::Drained, later arrivals are rejected Drained
     *  on ingest, and resident sequences run to completion.
     *
     *  **Interaction of drain, deadlines, and hit_step_limit.**
     *  The three stopping mechanisms are ordered and independent:
     *
     *   - *Deadlines* (Request::deadline_ms) shed individual
     *     *queued* requests whose deadline has passed — swept at
     *     every loop iteration *before* admission, and checked at
     *     ingest. Resident sequences are never expired; one that
     *     finishes late counts a deadline_miss instead. Deadline
     *     expiry keeps firing while draining (a request can be
     *     Drained or DeadlineExpired, whichever trips first; each
     *     is counted exactly once).
     *
     *   - *Drain* is a scheduler-wide admission freeze: residents
     *     finish, nothing new is admitted, the queue empties
     *     immediately. A drained run therefore terminates after at
     *     most the residents' remaining steps — drain can never
     *     wedge the loop.
     *
     *   - *hit_step_limit* (max_steps) is the safety valve above
     *     both: it bounds executed steps regardless of drain or
     *     deadlines. A run that drains cleanly ends with
     *     hit_step_limit == false even when draining shed every
     *     queued request; hit_step_limit == true means the cost
     *     model or workload kept residents alive past the budget —
     *     in_flight may then be nonzero even while draining.
     *
     *  Pinned by Scheduler.DrainDeadlineStepLimitInteraction.
     *
     *  A calm 1-replica FleetScheduler matches this scheduler step
     *  for step (FleetDifferential.SingleReplicaMatchesScheduler)
     *  with two known gaps: the fleet ignores drain_at_ms and
     *  drains only on a FaultPlan event, and it stamps ingest-time
     *  rejections differently (RejectedRequest::at_ms). */
    double drain_at_ms = -1.0;

    /** Cold-start weight streaming (empty plan = warm start). */
    ColdStartOptions cold_start;
};

/** Composition of one executed step (record_steps only). */
struct StepRecord
{
    double start_ms = 0.0;
    double step_ms = 0.0;

    /** Time this step spent waiting on weight residency during a
     *  cold start (already included in step_ms; 0 once the stream
     *  has finished, and on every warm run). */
    double weights_wait_ms = 0.0;

    /** Requests that ran a prefill-shaped pass in this step, in
     *  admission order: first-time prefills and recompute
     *  prefills of readmitted preempted sequences. */
    std::vector<int64_t> prefill_ids;

    /** Requests that decoded one token in this step. */
    std::vector<int64_t> decode_ids;

    /** Sequences preempted while making room for this step, in
     *  preemption order (Paged only). */
    std::vector<int64_t> preempted_ids;

    /** KV tokens the batch holds during this step: the sum of
     *  bucketed reservations (Reserve) or active pages ×
     *  page_tokens (Paged). */
    int64_t kv_reserved = 0;

    /** Pool occupancy when the step launched (Paged only;
     *  pages_active + pages_cached + pages_free == pool pages,
     *  recomputed by the property suite). */
    int64_t pages_active = 0;
    int64_t pages_cached = 0;
    int64_t pages_free = 0;

    /** Queued requests left behind when the step launched. */
    int64_t queue_depth = 0;
};

/** A rejected request and why. Rejections land in (arrival, id)
 *  order regardless of how arrivals were batched into ingest
 *  rounds. */
struct RejectedRequest
{
    int64_t id = 0;
    double arrival_ms = 0.0;
    RejectReason reason = RejectReason::QueueFull;

    /** Simulated time the rejection was decided: ingest time for
     *  TooLong/QueueFull/Drained arrivals, the expiry sweep for
     *  DeadlineExpired, drain entry for a shed queue. The
     *  Scheduler ingests only between steps, so its ingest time is
     *  the end of the step in flight at arrival; the fleet ingests
     *  at the arrival instant itself. */
    double at_ms = 0.0;
};

/** Outcome of serving one trace. */
struct ServingResult
{
    ServingMetrics metrics;
    std::vector<StepRecord> steps; ///< empty unless record_steps
    std::vector<RejectedRequest> rejected;
    bool hit_step_limit = false;
};

class Scheduler
{
  public:
    /** @p cost must outlive the scheduler. */
    Scheduler(SchedulerOptions options, StepCostModel &cost);

    const SchedulerOptions &options() const { return options_; }

    /** Serve @p trace to completion (ids must be unique). The
     *  trace need not be sorted; it is served in (arrival, id)
     *  order. */
    ServingResult run(std::vector<Request> trace);

    /** Serve a lazy trace without materializing it — bit-identical
     *  to run(vector-of-the-same-generator) but O(1) trace memory.
     *  The generator's stream is sorted and valid by construction
     *  (trace.h), so no sort/validate pass runs. */
    ServingResult run(TraceGenerator &trace);

  private:
    ServingResult runCursor(ArrivalCursor &arrivals);

    SchedulerOptions options_;
    StepCostModel &cost_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_SCHEDULER_H
