/**
 * @file
 * The benchmark's workloads and the report they fill in.
 *
 * Every workload follows one shape: set up (several times; the
 * median is setup_s), run timed passes over identical inputs until
 * the time budget is spent (host metrics are medians over passes),
 * then check the outputs outside the timed phase. Simulated metrics
 * are deterministic functions of the seed; host metrics are wall
 * clock. With tracing on, the same passes run with spans around the
 * library calls and the report carries the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One named number with its unit and the number of samples it
 *  summarizes (passes, set-up repetitions, requests, ...). */
struct Metric
{
    double value = 0.0;
    std::string unit;
    int64_t samples = 1;
};

struct Report
{
    /** Operations attempted in the timed phase, and those the
     *  program failed to carry out (a compile that threw, deadlocked
     *  or timed out; a request the fleet neither completed nor
     *  accounted as shed). Requests shed by the simulated fleet
     *  under load or faults are modelled outcomes, not failures:
     *  they show in ok_share and sim_slo_attainment. */
    int64_t attempted = 0;
    int64_t failed = 0;

    /** Output-check failures; any entry makes the run incorrect. */
    std::vector<std::string> check_failures;

    /** End-to-end metrics (untraced run). */
    std::map<std::string, Metric> end_to_end;

    /** Per-layer metrics (traced run). */
    std::map<std::string, Metric> per_layer;

    void check(bool ok, const std::string &what)
    {
        if (!ok)
            check_failures.push_back(what);
    }
};

Report runCompilePaper(const RunConfig &config, Tracer &tracer);
Report runServeGpt2(const RunConfig &config, Tracer &tracer);
Report runSweepFaults(const RunConfig &config, Tracer &tracer);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Nearest-rank percentile p in [0, 100] (0 when empty). */
double nearestRank(std::vector<double> values, double p);

/** Print one line "samples <label> v1 v2 ..." (human-readable run
 *  log: set-up repetitions, per-pass rates). */
void printSamples(const std::string &label,
                  const std::vector<double> &values);

/** Peak resident set of this process in MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
