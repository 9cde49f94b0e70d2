/**
 * @file
 * Perf smoke test for the parallel experiment engine: times a small fixed
 * sweep (tiny workload set × three schemes) sequentially and with
 * TLPSIM_JOBS workers, verifies the two phases produce bit-identical
 * per-workload stats, and emits machine-readable JSON (stdout and
 * BENCH_sweep.json) so the perf trajectory can be tracked across PRs.
 *
 * The sweep scale is fixed — independent of TLPSIM_WARMUP/TLPSIM_INSTRS —
 * so numbers are comparable between runs; only TLPSIM_JOBS (parallel
 * worker count, default hardware_concurrency) is honoured.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace tlpsim::experiment;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SweepResult
{
    double wall_s = 0.0;
    std::uint64_t total_cycles = 0;
    std::vector<SimResult> results;
};

SweepResult
runSweep(unsigned jobs, const std::vector<workloads::WorkloadSpec> &ws,
         const std::vector<SystemConfig> &grid)
{
    Runner runner(jobs);
    Clock::time_point start = Clock::now();
    for (const auto &cfg : grid) {
        for (const auto &w : ws)
            runner.submitSingle(w, cfg);
    }
    SweepResult out;
    for (const auto &cfg : grid) {
        for (const auto &w : ws) {
            const SimResult &r = runner.single(w, cfg);
            for (Cycle c : r.window_cycles)
                out.total_cycles += c;
            out.results.push_back(r);
        }
    }
    out.wall_s = secondsSince(start);
    return out;
}

} // namespace

int
main()
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    std::vector<SystemConfig> grid;
    for (const SchemeConfig &s :
         {SchemeConfig::fromName("baseline"), SchemeConfig::fromName("hermes"),
          SchemeConfig::fromName("tlp")}) {
        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.warmup_instrs = 10'000;
        cfg.sim_instrs = 40'000;
        cfg.scheme = s;
        grid.push_back(cfg);
    }

    // Record every trace first so both timed phases measure simulation
    // throughput, not (once-per-process) trace construction.
    std::fprintf(stderr, "[perf_smoke] building %zu traces...\n", ws.size());
    for (const auto &w : ws)
        cachedTrace(w, grid.front().warmup_instrs + grid.front().sim_instrs);

    unsigned jobs_n = jobsFromEnv();
    std::fprintf(stderr, "[perf_smoke] sweep: %zu workloads x %zu schemes, "
                 "jobs 1 vs %u\n", ws.size(), grid.size(), jobs_n);

    SweepResult seq = runSweep(1, ws, grid);
    SweepResult par = runSweep(jobs_n, ws, grid);

    bool identical = seq.results.size() == par.results.size();
    for (std::size_t i = 0; identical && i < seq.results.size(); ++i) {
        identical = seq.results[i].stats == par.results[i].stats
            && seq.results[i].window_cycles == par.results[i].window_cycles;
    }

    double speedup = par.wall_s > 0.0 ? seq.wall_s / par.wall_s : 0.0;
    unsigned hw = std::thread::hardware_concurrency();

    // Host/toolchain metadata: throughput numbers are only comparable
    // between runs that share these, so the JSON carries them and the
    // perf gate (tools/perf_gate.py) surfaces baseline mismatches.
#if defined(__clang__)
    const char *compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
#ifndef TLPSIM_BUILD_TYPE
#define TLPSIM_BUILD_TYPE ""
#endif
    const char *build_type = TLPSIM_BUILD_TYPE[0] != '\0'
        ? TLPSIM_BUILD_TYPE
#ifdef NDEBUG
        : "release-like";
#else
        : "debug-like";
#endif

    char json[768];
    std::snprintf(
        json, sizeof(json),
        "{\"bench\": \"perf_smoke\", \"workloads\": %zu, \"schemes\": %zu, "
        "\"design_points\": %zu, \"jobs\": %u, \"hw_threads\": %u, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", "
        "\"wall_s_jobs1\": %.3f, \"wall_s_jobsN\": %.3f, "
        "\"speedup\": %.2f, "
        "\"sim_kcycles_per_s_jobs1\": %.1f, "
        "\"sim_kcycles_per_s_jobsN\": %.1f, "
        "\"identical_stats\": %s}",
        ws.size(), grid.size(), ws.size() * grid.size(), jobs_n, hw,
        compiler, build_type,
        seq.wall_s, par.wall_s, speedup,
        seq.wall_s > 0 ? seq.total_cycles / seq.wall_s / 1e3 : 0.0,
        par.wall_s > 0 ? par.total_cycles / par.wall_s / 1e3 : 0.0,
        identical ? "true" : "false");

    std::printf("%s\n", json);
    if (FILE *f = std::fopen("BENCH_sweep.json", "w")) {
        std::fprintf(f, "%s\n", json);
        std::fclose(f);
    }

    if (!identical) {
        std::fprintf(stderr, "[perf_smoke] FAIL: parallel sweep diverged "
                     "from sequential sweep\n");
        return 1;
    }
    return 0;
}
