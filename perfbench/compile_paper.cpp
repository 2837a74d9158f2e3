/**
 * @file
 * compile_paper: the cold compile flow for the four Table 7 models
 * on the U55C. Each pass builds, compiles and simulates every
 * prefill and decode shape of the default bucket ladder for every
 * model, then runs a fresh LlmExecutor over the paper's Table 4 and
 * Fig. 9 [in:out] points. The seed shuffles the shape order and
 * picks the groups re-checked against the reference simulator; the
 * simulated results do not depend on it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <random>

#include "baselines/fpga_baselines.h"
#include "baselines/gpu_model.h"
#include "compiler/compiler.h"
#include "models/bucketing.h"
#include "runtime/executor.h"
#include "sim/reference_simulator.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace streamtensor;

/** SLO for one unbatched request on the accelerator: first token
 *  within 200 ms, then at most 20 ms per output token. */
constexpr double kTtftLimitMs = 200.0;
constexpr double kTbtLimitMs = 20.0;

/** Groups re-simulated by the per-firing reference per run. */
constexpr int kReferenceSamples = 6;

struct Job
{
    size_t model = 0;
    models::BlockShapes shapes;
};

/** Table 4 points plus the Fig. 9 grid, without duplicates. */
std::vector<std::pair<int64_t, int64_t>>
paperSweep()
{
    std::vector<std::pair<int64_t, int64_t>> points;
    for (int64_t in : {32, 64, 128})
        for (int64_t out : {32, 64, 128})
            points.push_back({in, out});
    points.push_back({256, 256});
    return points;
}

/** Everything one pass produced that the checks and metrics read.
 *  Counts are per pass; the simulated fields repeat exactly. */
struct PassResult
{
    double seconds = 0.0;
    int64_t shapes = 0; ///< shapes built+compiled+simulated
    int64_t failed = 0;
    std::vector<std::string> failures;

    int64_t groups = 0, components = 0, clamped_fifos = 0;
    int64_t fifo_depth_total = 0, lp_groups = 0, sized_groups = 0;
    int64_t crossings = 0, ilp_groups = 0, partitioned_groups = 0;
    int64_t events = 0, deadlocks = 0, timeouts = 0;
    double cycles = 0.0;
    int64_t run_calls = 0, compile_misses = 0;

    /** Per job (in job-list order), per group: simulated cycles. */
    std::vector<std::vector<double>> group_cycles;
    /** Per model, per sweep point. */
    std::vector<std::vector<runtime::LlmRunResult>> runs;
};

/** The default pipeline with every stage wrapped in a span. */
compiler::Pipeline
tracedPipeline(Tracer &tracer)
{
    compiler::Pipeline traced;
    const compiler::Pipeline base = compiler::defaultPipeline();
    for (const auto &stage : base.stages()) {
        std::string span = "compiler." + stage.name;
        compiler::Pipeline::StageFn fn = stage.run;
        traced.add(stage.name,
                   [fn, span, &tracer](compiler::StageContext &ctx) {
                       ScopedSpan s(tracer, span);
                       fn(ctx);
                   });
    }
    return traced;
}

PassResult
runPass(const std::vector<models::LlmConfig> &configs,
        const std::vector<Job> &jobs,
        const compiler::Pipeline &pipeline,
        const hls::FpgaPlatform &platform, Tracer &tracer)
{
    PassResult pass;
    int64_t start = nowNs();
    ScopedSpan pass_span(tracer, "bench.pass");

    pass.group_cycles.resize(jobs.size());
    for (size_t j = 0; j < jobs.size(); ++j) {
        const Job &job = jobs[j];
        ++pass.shapes;
        try {
            int64_t build = tracer.begin("models.build",
                                         static_cast<int64_t>(j));
            linalg::Graph graph = models::buildTransformerBlock(
                configs[job.model], job.shapes);
            tracer.end(build);

            int64_t compile = tracer.begin("compiler.compile",
                                           static_cast<int64_t>(j));
            compiler::CompileResult result = compiler::compileWith(
                pipeline, std::move(graph), platform);
            tracer.end(compile);

            int64_t simulate = tracer.begin("sim.simulate",
                                            static_cast<int64_t>(j));
            std::vector<sim::SimResult> sims =
                sim::simulateAll(result.design.components);
            tracer.end(simulate);

            const auto &cg = result.design.components;
            pass.groups += cg.numGroups();
            pass.components += cg.numComponents();
            pass.clamped_fifos += result.clamped_fifos;
            for (const auto &s : result.sizing) {
                pass.fifo_depth_total += s.totalDepth();
                pass.lp_groups += s.used_lp;
                ++pass.sized_groups;
            }
            for (const auto &p : result.partitions) {
                pass.crossings += p.crossings;
                pass.ilp_groups += p.used_ilp;
                ++pass.partitioned_groups;
            }
            bool ok = true;
            for (const auto &s : sims) {
                pass.events += s.events;
                pass.cycles += s.cycles;
                pass.deadlocks += s.deadlock;
                pass.timeouts += s.timed_out;
                ok = ok && !s.deadlock && !s.timed_out;
                pass.group_cycles[j].push_back(s.cycles);
            }
            if (!ok) {
                ++pass.failed;
                pass.failures.push_back(
                    configs[job.model].name + " shape (" +
                    std::to_string(job.shapes.seq_len) + "," +
                    std::to_string(job.shapes.kv_len) +
                    ") deadlocked or timed out");
            }
        } catch (const std::exception &e) {
            ++pass.failed;
            pass.failures.push_back(configs[job.model].name +
                                    " compile threw: " + e.what());
        }
    }

    auto sweep = paperSweep();
    pass.runs.resize(configs.size());
    for (size_t m = 0; m < configs.size(); ++m) {
        runtime::LlmExecutor executor(configs[m], platform);
        for (size_t i = 0; i < sweep.size(); ++i) {
            ++pass.run_calls;
            try {
                ScopedSpan span(tracer, "runtime.run",
                                static_cast<int64_t>(i));
                runtime::LlmRunResult r =
                    executor.run(sweep[i].first, sweep[i].second);
                if (r.deadlock) {
                    ++pass.failed;
                    pass.failures.push_back(configs[m].name +
                                            " run deadlocked");
                }
                pass.runs[m].push_back(r);
            } catch (const std::exception &e) {
                ++pass.failed;
                pass.failures.push_back(configs[m].name +
                                        " run threw: " + e.what());
                pass.runs[m].emplace_back(); // keep sweep alignment
            }
        }
        pass.compile_misses += executor.compileCount();
    }
    pass.shapes += pass.compile_misses;
    pass.seconds = secondsSince(start);
    return pass;
}

double
geoMean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return values.empty() ? 0.0
                          : std::exp(log_sum / values.size());
}

/** Model-over-baseline ratios the paper reports, printed next to
 *  the paper's value. Informational: the error is against the
 *  paper's figures, not against hardware. */
void
printPaperFidelity(const std::vector<models::LlmConfig> &configs,
                   const PassResult &pass)
{
    auto sweep = paperSweep();
    auto line = [](const char *name, double model, double paper) {
        std::printf("paper_fidelity %-28s model=%.2fx paper=%.2fx "
                    "error_vs_paper=%+.1f%%\n",
                    name, model, paper,
                    100.0 * (model / paper - 1.0));
    };

    // Tables 4/5: GPT-2 on the Table 4 points.
    const std::pair<int64_t, int64_t> table4[] = {
        {32, 32}, {64, 64}, {128, 128}, {256, 256}};
    auto allo = baselines::alloSpec();
    auto dfx = baselines::dfxSpec();
    auto a100 = baselines::a100();
    std::vector<double> ratios[9];
    const models::LlmConfig &gpt2 = configs[0];
    for (auto [in, out] : table4) {
        size_t i = std::find(sweep.begin(), sweep.end(),
                             std::make_pair(in, out)) -
                   sweep.begin();
        const runtime::LlmRunResult &r = pass.runs[0][i];
        auto a = baselines::evaluateFpgaBaseline(allo, gpt2, in, out);
        auto d = baselines::evaluateFpgaBaseline(dfx, gpt2, in, out);
        auto g = baselines::evaluateGpu(a100, gpt2, in, out);
        double ours[3] = {r.total_latency_ms, r.ttft_ms,
                          r.tokens_per_s};
        double base[3][3] = {
            {a.total_latency_ms, a.ttft_ms, a.tokens_per_s},
            {d.total_latency_ms, d.ttft_ms, d.tokens_per_s},
            {g.total_latency_ms, g.ttft_ms, g.tokens_per_s}};
        for (int b = 0; b < 3; ++b)
            for (int k = 0; k < 3; ++k)
                ratios[3 * b + k].push_back(ours[k] / base[b][k]);
    }
    const char *names[9] = {
        "table4.ours_over_allo.latency", "table4.ours_over_allo.ttft",
        "table4.ours_over_allo.speed",   "table4.ours_over_dfx.latency",
        "table4.ours_over_dfx.ttft",     "table4.ours_over_dfx.speed",
        "table5.ours_over_a100.latency", "table5.ours_over_a100.ttft",
        "table5.ours_over_a100.speed"};
    const double paper[9] = {0.76, 0.40, 1.06, 0.52, 0.19,
                             1.17, 0.64, 10.65, 1.89};
    for (int k = 0; k < 9; ++k)
        line(names[k], geoMean(ratios[k]), paper[k]);

    // Fig. 9: per emerging model, the largest tokens/J ratio over
    // the A100 on the {32,64,128}^2 grid. The paper reports Qwen up
    // to 1.99x, Gemma up to 1.59x, and Llama below the A100.
    for (size_t m = 1; m < configs.size(); ++m) {
        double max_ratio = 0.0;
        for (size_t i = 0; i < sweep.size(); ++i) {
            if (sweep[i].first > 128)
                continue;
            auto g = baselines::evaluateGpu(a100, configs[m],
                                            sweep[i].first,
                                            sweep[i].second);
            max_ratio = std::max(max_ratio,
                                 pass.runs[m][i].tokens_per_joule /
                                     g.tokens_per_joule);
        }
        std::string name =
            "fig9.max_energy_ratio." + configs[m].name;
        if (configs[m].name == "Llama")
            std::printf("paper_fidelity %-28s model=%.2fx paper=below "
                        "1.00x\n",
                        name.c_str(), max_ratio);
        else
            line(name.c_str(), max_ratio,
                 configs[m].name == "Qwen" ? 1.99 : 1.59);
    }
}

/** Re-simulate a seeded sample of groups with the per-firing
 *  reference simulator: cycles, firings and channel push/pop
 *  counts must match the production simulator bit for bit, and the
 *  production cycles must match the timed pass. */
void
checkAgainstReference(const std::vector<models::LlmConfig> &configs,
                      const std::vector<Job> &jobs,
                      const PassResult &pass,
                      const hls::FpgaPlatform &platform,
                      uint64_t seed, Report &report)
{
    std::vector<std::pair<size_t, int64_t>> candidates;
    for (size_t j = 0; j < jobs.size(); ++j)
        for (size_t g = 0; g < pass.group_cycles[j].size(); ++g)
            candidates.push_back({j, static_cast<int64_t>(g)});
    std::mt19937_64 rng(seed ^ 0x5eedc0de);
    for (int k = 0; k < kReferenceSamples && !candidates.empty();
         ++k) {
        auto [j, g] = candidates[rng() % candidates.size()];
        const Job &job = jobs[j];
        std::string what = configs[job.model].name + " shape (" +
                           std::to_string(job.shapes.seq_len) + "," +
                           std::to_string(job.shapes.kv_len) +
                           ") group " + std::to_string(g);
        compiler::CompileResult result = compiler::compile(
            models::buildTransformerBlock(configs[job.model],
                                          job.shapes),
            platform);
        const auto &cg = result.design.components;
        sim::SimResult fast = sim::simulateGroup(cg, g);
        sim::SimResult ref = sim::simulateGroupReference(cg, g);
        bool same = fast.cycles == ref.cycles &&
                    fast.deadlock == ref.deadlock &&
                    fast.timed_out == ref.timed_out &&
                    fast.components.size() == ref.components.size() &&
                    fast.channels.size() == ref.channels.size();
        for (size_t c = 0; same && c < fast.components.size(); ++c)
            same = fast.components[c].firings ==
                       ref.components[c].firings &&
                   fast.components[c].finish_time ==
                       ref.components[c].finish_time;
        for (size_t c = 0; same && c < fast.channels.size(); ++c)
            same = fast.channels[c].pushes == ref.channels[c].pushes &&
                   fast.channels[c].pops == ref.channels[c].pops;
        report.check(same, what + " differs from the reference "
                                  "simulator");
        report.check(fast.cycles == pass.group_cycles[j][g],
                     what + " cycles differ from the timed pass");
        std::printf("check reference %s: %s (%.0f cycles)\n",
                    what.c_str(), same ? "match" : "MISMATCH",
                    fast.cycles);
    }
}

} // namespace

Report
runCompilePaper(const RunConfig &config, Tracer &tracer)
{
    Report report;
    const hls::FpgaPlatform platform = hls::u55c();
    std::vector<models::LlmConfig> configs;
    std::vector<Job> jobs;
    compiler::Pipeline pipeline;

    // Set-up: the model configs, the seeded job order, the pipeline,
    // and one warm-up compile of the smallest GPT-2 shape (thread
    // pool start, first-touch allocations). Repeated; median kept.
    std::vector<double> setups;
    for (int rep = 0; rep < 15; ++rep) {
        int64_t start = nowNs();
        configs = models::allConfigs();
        jobs.clear();
        auto ladder = models::bucketBoundaries(models::BucketPolicy{});
        for (size_t m = 0; m < configs.size(); ++m)
            for (int64_t len : ladder) {
                jobs.push_back({m, models::prefillShapes(len)});
                jobs.push_back({m, models::decodeShapes(len)});
            }
        std::mt19937_64 rng(config.seed);
        std::shuffle(jobs.begin(), jobs.end(), rng);
        pipeline = config.trace ? tracedPipeline(tracer)
                                : compiler::defaultPipeline();
        compiler::CompileResult warm = compiler::compile(
            models::buildTransformerBlock(configs[0],
                                          models::prefillShapes(16)),
            platform);
        (void)sim::simulateAll(warm.design.components);
        setups.push_back(secondsSince(start));
    }

    // Timed passes.
    std::vector<PassResult> passes;
    std::vector<double> rates;
    int64_t timed_start = nowNs();
    do {
        passes.push_back(
            runPass(configs, jobs, pipeline, platform, tracer));
        const PassResult &p = passes.back();
        rates.push_back(static_cast<double>(p.shapes) / p.seconds);
        report.attempted += p.shapes + p.run_calls;
        report.failed += p.failed;
    } while (secondsSince(timed_start) < config.seconds);
    double timed_seconds = secondsSince(timed_start);

    // Output checks (untimed).
    const PassResult &first = passes.front();
    for (const auto &p : passes) {
        for (const auto &f : p.failures)
            report.check(false, f);
        report.check(p.group_cycles == first.group_cycles,
                     "simulated cycles differ between passes");
        bool same_runs = p.runs.size() == first.runs.size();
        for (size_t m = 0; same_runs && m < p.runs.size(); ++m)
            for (size_t i = 0;
                 same_runs && i < p.runs[m].size(); ++i)
                same_runs =
                    p.runs[m][i].total_latency_ms ==
                        first.runs[m][i].total_latency_ms &&
                    p.runs[m][i].tokens_per_joule ==
                        first.runs[m][i].tokens_per_joule;
        report.check(same_runs,
                     "executor results differ between passes");
    }
    checkAgainstReference(configs, jobs, first, platform, config.seed,
                          report);
    if (first.failed == 0)
        printPaperFidelity(configs, first);

    // Simulated request metrics over models x the paper sweep.
    std::vector<double> latency, ttft, tokens_per_j;
    double decode_tokens = 0.0, decode_ms = 0.0;
    int64_t slo_met = 0, requests = 0;
    auto sweep = paperSweep();
    for (const auto &runs : first.runs)
        for (size_t i = 0; i < runs.size(); ++i) {
            const runtime::LlmRunResult &r = runs[i];
            ++requests;
            latency.push_back(r.total_latency_ms);
            ttft.push_back(r.ttft_ms);
            tokens_per_j.push_back(r.tokens_per_joule);
            decode_tokens += static_cast<double>(sweep[i].second);
            decode_ms += r.total_latency_ms - r.ttft_ms;
            slo_met += r.ttft_ms <= kTtftLimitMs &&
                       r.decode_ms_per_token <= kTbtLimitMs;
        }

    printSamples("setup_s", setups);
    printSamples("host_ops_per_s", rates);
    auto &e2e = report.end_to_end;
    const auto n_setups = static_cast<int64_t>(setups.size());
    const auto n_passes = static_cast<int64_t>(passes.size());
    e2e["setup_s"] = {median(setups), "s", n_setups};
    e2e["host_ops_per_s"] = {median(rates), "1/s", n_passes};
    e2e["peak_rss_mb"] = {peakRssMb(), "MB"};
    e2e["ok_share"] = {1.0 - static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted),
                       "share", report.attempted};
    e2e["sim_latency_p50_ms"] = {nearestRank(latency, 50), "sim_ms",
                                 requests};
    e2e["sim_ttft_p50_ms"] = {nearestRank(ttft, 50), "sim_ms", requests};
    e2e["sim_ttft_p99_ms"] = {nearestRank(ttft, 99), "sim_ms", requests};
    e2e["sim_decode_tok_s"] = {decode_tokens / decode_ms * 1e3,
                               "sim_tok/s", requests};
    e2e["sim_slo_attainment"] = {
        static_cast<double>(slo_met) / static_cast<double>(requests),
        "share", requests};
    std::printf("passes %zu in %.3f s; %lld shapes and %lld executor "
                "runs per pass; sim requests %lld\n",
                passes.size(), timed_seconds,
                static_cast<long long>(first.shapes),
                static_cast<long long>(first.run_calls),
                static_cast<long long>(requests));

    if (!config.trace)
        return report;

    auto &pl = report.per_layer;
    double n = static_cast<double>(passes.size());
    for (const auto &stage : pipeline.stages())
        pl["compiler." + stage.name + "_s"] = {
            tracer.totalSeconds("compiler." + stage.name) / n, "s"};
    auto self = tracer.selfSecondsByLayer("bench.pass");
    pl["compiler.self_s"] = {self["compiler"] / n, "s"};
    pl["compiler.groups"] = {double(first.groups), "count"};
    pl["compiler.components"] = {double(first.components), "count"};
    pl["compiler.clamped_fifos"] = {double(first.clamped_fifos),
                                    "count"};
    pl["models.build_s"] = {tracer.totalSeconds("models.build") / n,
                            "s"};
    pl["token.fifo_depth_total"] = {double(first.fifo_depth_total),
                                    "tokens"};
    pl["token.lp_share"] = {
        double(first.lp_groups) / double(first.sized_groups), "share"};
    pl["partition.crossings"] = {double(first.crossings), "count"};
    pl["partition.ilp_share"] = {double(first.ilp_groups) /
                                     double(first.partitioned_groups),
                                 "share"};
    double sim_s = tracer.totalSeconds("sim.simulate") / n;
    pl["sim.simulate_s"] = {sim_s, "s"};
    pl["sim.events"] = {double(first.events), "count"};
    pl["sim.events_per_s"] = {double(first.events) / sim_s, "1/s"};
    pl["sim.cycles_per_host_s"] = {first.cycles / sim_s, "cycles/s"};
    pl["sim.deadlocks"] = {double(first.deadlocks), "count"};
    pl["sim.timeouts"] = {double(first.timeouts), "count"};
    pl["runtime.run_calls"] = {double(first.run_calls), "count"};
    pl["runtime.run_s"] = {tracer.totalSeconds("runtime.run") / n, "s"};
    pl["runtime.compile_misses"] = {double(first.compile_misses),
                                    "count"};
    pl["runtime.tokens_per_j"] = {geoMean(tokens_per_j), "sim_tok/J"};
    pl["runtime.self_s"] = {self["runtime"] / n, "s"};
    pl["bench.self_s"] = {self["bench"] / n, "s"};
    pl["bench.traced_ops_per_s"] = {median(rates), "1/s"};
    return report;
}

} // namespace perfbench
