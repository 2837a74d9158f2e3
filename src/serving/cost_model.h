/**
 * @file
 * Step-cost oracles for the scheduler. ExecutorCostModel is the
 * real thing: each step's cost comes from the PR-3 cycle-accurate
 * simulator through runtime::LlmExecutor's compiled-block cache
 * (bucketing keeps the set of shapes — and therefore compiles —
 * small). AnalyticCostModel is a closed-form stand-in for the
 * deterministic replay/property suites, where thousands of
 * scheduler runs must cost microseconds, not compiles.
 */

#ifndef STREAMTENSOR_SERVING_COST_MODEL_H
#define STREAMTENSOR_SERVING_COST_MODEL_H

#include "runtime/executor.h"
#include "serving/scheduler.h"

namespace streamtensor {
namespace serving {

/** Per-step costs from the compiled + simulated blocks of an
 *  executor (runtime::LlmExecutor::step). */
class ExecutorCostModel : public StepCostModel
{
  public:
    /** @p executor must outlive the model. */
    explicit ExecutorCostModel(runtime::LlmExecutor &executor)
        : executor_(executor)
    {}

    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override;

    /** True once any costed block deadlocked or timed out. */
    bool sawDeadlock() const { return saw_deadlock_; }

    /** Serving-side placement metrics: inter-die crossings of the
     *  most recent step's blocks, and the crossing-attributed
     *  stall time accumulated across every costed step (how much
     *  of the serving run's busy time the die boundaries ate). */
    int64_t lastStepCrossings() const { return last_crossings_; }
    double crossingStallMs() const { return crossing_stall_ms_; }

    /** Largest KV footprint any costed step streamed (Σ count ×
     *  kv_len over its groups) — the accelerator-side KV pressure
     *  high-water mark, comparable against the scheduler's
     *  kv_budget_tokens. */
    int64_t peakKvTokens() const { return peak_kv_tokens_; }

  private:
    runtime::LlmExecutor &executor_;
    bool saw_deadlock_ = false;
    int64_t last_crossings_ = 0;
    double crossing_stall_ms_ = 0.0;
    int64_t peak_kv_tokens_ = 0;
};

/** Closed-form linear cost: per-step trigger cost per shape group
 *  plus per-sequence and per-token terms. Used by the scheduler
 *  test harness — trivially deterministic, hand-computable in
 *  replay assertions, and monotone in batch and shape size. */
struct AnalyticCostOptions
{
    double trigger_ms = 0.25;   ///< per shape group
    double per_seq_ms = 0.5;    ///< per batched sequence
    double per_query_token_ms = 0.02; ///< × shapes.seq_len
    double per_kv_token_ms = 0.005;   ///< × shapes.kv_len
};

class AnalyticCostModel : public StepCostModel
{
  public:
    explicit AnalyticCostModel(AnalyticCostOptions options = {})
        : options_(options)
    {}

    double
    stepMs(const std::vector<runtime::StepGroup> &groups) override;

  private:
    AnalyticCostOptions options_;
};

} // namespace serving
} // namespace streamtensor

#endif // STREAMTENSOR_SERVING_COST_MODEL_H
