/**
 * @file
 * perfbench: one program for the benchmark's workloads.
 *
 *   perfbench --workload <compile_paper|serve_gpt2|sweep_faults>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-out <file.json>] [--source-id <id>]
 *
 * Prints human-readable progress, one "context" line, and as its
 * last line one JSON object {correct, attempted, failed, metrics}:
 * the end-to-end metrics with --trace 0, the per-layer metrics this
 * workload measured with --trace 1 (which also writes the Chrome
 * trace to --trace-out; run.py adds 0 for the layers it bypasses).
 * Exits 1 when an output check fails, 2 on bad arguments.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.h"

using namespace perfbench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<compile_paper|serve_gpt2|sweep_faults> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--source-id <id>]\n",
                 why);
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** "simulated" numbers repeat exactly for a seed; "host" numbers
 *  are wall clock or memory and carry machine noise; "count" is
 *  anything else (program counts and shares). */
const char *
metricKind(const std::string &name, const std::string &unit)
{
    if (name.rfind("sim_", 0) == 0 || unit.rfind("sim_", 0) == 0)
        return "simulated";
    for (const char *host : {"s", "1/s", "us", "MB", "cycles/s"})
        if (unit == host)
            return "host";
    return "count";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string trace_out, source_id = "unknown";
    bool have_workload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload") {
            config.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            config.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            config.seconds = std::atof(value.c_str());
        } else if (key == "--trace") {
            config.trace = value == "1";
        } else if (key == "--trace-out") {
            trace_out = value;
        } else if (key == "--source-id") {
            source_id = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (!have_workload || argc % 2 == 0)
        return usage("missing or malformed arguments");
    if (!(config.seconds > 0.0))
        return usage("--seconds must be positive");

    Tracer tracer(config.trace);
    Report report;
    try {
        if (config.workload == "compile_paper")
            report = runCompilePaper(config, tracer);
        else if (config.workload == "serve_gpt2")
            report = runServeGpt2(config, tracer);
        else if (config.workload == "sweep_faults")
            report = runSweepFaults(config, tracer);
        else
            return usage(("unknown workload " + config.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     config.workload.c_str(), e.what());
        return 1;
    }

    // Machine context, recorded with every result.
    std::map<std::string, std::string> context = {
        {"workload", config.workload},
        {"seed", std::to_string(config.seed)},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compiler", PERFBENCH_COMPILER},
        {"source", source_id},
        {"traced", config.trace ? "1" : "0"},
    };
    std::string context_json;
    for (const auto &[k, v] : context)
        context_json += (context_json.empty() ? "" : ",") +
                        jsonString(k) + ":" + jsonString(v);
    std::printf("context {%s}\n", context_json.c_str());

    const std::map<std::string, Metric> &metrics =
        config.trace ? report.per_layer : report.end_to_end;
    if (config.trace) {
        for (const auto &[layer, s] : tracer.selfSecondsByLayer())
            std::printf("self_time_whole_run %-10s %.6f s\n",
                        layer.c_str(), s);
        if (!trace_out.empty() &&
            !tracer.writeChromeTrace(trace_out, context))
            report.check(false, "cannot write " + trace_out);
    }
    for (const auto &[name, m] : metrics)
        report.check(std::isfinite(m.value), name + " is not finite");

    for (const auto &[name, m] : metrics)
        std::printf("metric %-30s %-14.6g %-10s %-9s samples=%lld\n",
                    name.c_str(), m.value, m.unit.c_str(),
                    metricKind(name, m.unit),
                    static_cast<long long>(m.samples));
    for (const auto &f : report.check_failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());
    bool correct = report.check_failures.empty();

    std::string metrics_json;
    char buf[64];
    for (const auto &[name, m] : metrics) {
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        metrics_json += (metrics_json.empty() ? "" : ", ") +
                        jsonString(name) + ": {\"value\": " + buf +
                        ", \"unit\": " + jsonString(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<long long>(report.attempted),
                static_cast<long long>(report.failed),
                metrics_json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
