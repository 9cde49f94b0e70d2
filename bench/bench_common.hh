/**
 * @file
 * Shared scaffolding for the figure/table benches.
 *
 * Every bench regenerates one or more of the paper's tables/figures as
 * labelled text tables. Scale knobs (all optional):
 *   TLPSIM_SET=tiny|small|full   workload set (default small)
 *   TLPSIM_WARMUP / TLPSIM_INSTRS  per-core instruction counts
 *   TLPSIM_MIXES                 4-core mixes per suite
 *
 * Simulation results are cached per (workload|mix, config) within the
 * process so benches that print several figures from the same runs (e.g.
 * Figs. 10/11/12) simulate each design point once.
 *
 * Simulations are sharded across TLPSIM_JOBS worker threads (default:
 * all hardware threads) by the experiment Runner. Benches submit their
 * full design-point grid up front (prewarm*) and then render tables with
 * run()/runMixCached(), which block on the corresponding jobs; tables are
 * bit-identical regardless of the worker count.
 *
 * Measurement semantics are per core (ChampSim-style): every per-core
 * metric a figure prints — IPC, MPKI, PPKI, prefetch accuracy — covers
 * that core's own warmup-to-target window, so heterogeneous mixes report
 * physically plausible per-core numbers (see SimResult). Shared-structure
 * stats (LLC, DRAM) span first-window-open to last-window-close.
 */

#ifndef TLPSIM_BENCH_BENCH_COMMON_HH
#define TLPSIM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/runner.hh"

namespace tlpsim::bench
{

using experiment::TablePrinter;

/** Default bench scale: small enough for a laptop sweep. */
inline InstrCount
benchWarmup()
{
    return experiment::envWarmup(50'000);
}

inline InstrCount
benchInstrs()
{
    return experiment::envInstrs(250'000);
}

inline int
benchMixes()
{
    return experiment::envMixes(2);
}

inline std::vector<workloads::WorkloadSpec>
benchWorkloads()
{
    return workloads::singleCoreWorkloads(workloads::setSizeFromEnv());
}

/** The shared multi-core mix set (Figs. 3/13/15/16): the paper's recipe
 *  over the bench workload set, fixed seed so every mix bench and the
 *  tlpsim CLI agree on what "the mixes" are. */
inline std::vector<workloads::Mix>
benchMixSet(const std::vector<workloads::WorkloadSpec> &ws,
            int mixes_per_suite = benchMixes(), unsigned cores = 4)
{
    return workloads::makeMixes(ws, mixes_per_suite, 1234, cores);
}

/**
 * The one place bench scale knobs are applied: Table III system for
 * @p cores with the bench warmup/instruction counts, an L1D prefetcher
 * picked by registry name, and a scheme preset (SchemeConfig::fromName
 * for the paper's named design points).
 */
inline SystemConfig
benchSystem(unsigned cores, const std::string &l1_pf = "ipcp",
            const SchemeConfig &scheme = SchemeConfig::fromName("baseline"))
{
    SystemConfig cfg = SystemConfig::cascadeLake(cores);
    cfg.warmup_instrs = benchWarmup();
    cfg.sim_instrs = benchInstrs();
    cfg.l1_prefetcher = l1_pf;
    cfg.scheme = scheme;
    return cfg;
}

/** Single-core config at bench scale. */
inline SystemConfig
benchConfig(const std::string &l1_pf = "ipcp",
            const SchemeConfig &scheme = SchemeConfig::fromName("baseline"))
{
    return benchSystem(1, l1_pf, scheme);
}

/** 4-core config at bench scale. */
inline SystemConfig
benchConfigMc(const std::string &l1_pf = "ipcp",
              const SchemeConfig &scheme = SchemeConfig::fromName("baseline"))
{
    return benchSystem(4, l1_pf, scheme);
}

/** Run (or fetch) a single-core simulation through the shared runner. */
inline const SimResult &
run(const workloads::WorkloadSpec &w, const SystemConfig &cfg)
{
    return experiment::defaultRunner().single(w, cfg);
}

/** Run (or fetch) a 4-core mix simulation through the shared runner. */
inline const SimResult &
runMixCached(const std::vector<workloads::WorkloadSpec> &all,
             const workloads::Mix &mix, const SystemConfig &cfg)
{
    return experiment::defaultRunner().mix(all, mix, cfg);
}

/** Queue every (workload × config) design point without waiting. */
inline void
prewarm(const std::vector<workloads::WorkloadSpec> &ws,
        const std::vector<SystemConfig> &cfgs)
{
    for (const auto &cfg : cfgs) {
        for (const auto &w : ws)
            experiment::defaultRunner().submitSingle(w, cfg);
    }
}

/** Queue every (mix × config) design point without waiting. */
inline void
prewarmMixes(const std::vector<workloads::WorkloadSpec> &all,
             const std::vector<workloads::Mix> &mixes,
             const std::vector<SystemConfig> &cfgs)
{
    for (const auto &cfg : cfgs) {
        for (const auto &mix : mixes)
            experiment::defaultRunner().submitMix(all, mix, cfg);
    }
}

/** Queue the isolated single-core runs the weighted-speedup metric needs
 *  for each slot of each mix. */
inline void
prewarmMixSingles(const std::vector<workloads::WorkloadSpec> &all,
                  const std::vector<workloads::Mix> &mixes,
                  const SystemConfig &sc_cfg)
{
    for (const auto &mix : mixes) {
        for (int idx : mix.workload_index)
            experiment::defaultRunner().submitSingle(
                all[static_cast<std::size_t>(idx)], sc_cfg);
    }
}

/** Isolated per-slot IPCs of @p mix under @p sc_cfg — the denominator of
 *  the paper's weighted-speedup metric (§V-D). */
inline std::vector<double>
mixSingleIpcs(const std::vector<workloads::WorkloadSpec> &all,
              const workloads::Mix &mix, const SystemConfig &sc_cfg)
{
    std::vector<double> out;
    for (int idx : mix.workload_index)
        out.push_back(run(all[static_cast<std::size_t>(idx)], sc_cfg).ipc[0]);
    return out;
}

/** Per-suite + overall geometric-mean summary of per-workload percents. */
struct SuiteSummary
{
    std::vector<double> spec;
    std::vector<double> gap;

    void
    add(workloads::Suite suite, double pct)
    {
        (suite == workloads::Suite::Spec ? spec : gap).push_back(pct);
    }

    double specMean() const { return experiment::geomeanSpeedupPct(spec); }
    double gapMean() const { return experiment::geomeanSpeedupPct(gap); }

    double
    allMean() const
    {
        std::vector<double> all = spec;
        all.insert(all.end(), gap.begin(), gap.end());
        return experiment::geomeanSpeedupPct(all);
    }
};

inline void
printBanner(const char *what, const char *paper_ref)
{
    // Every bench main calls this first, so every scale knob is read
    // here once: a malformed one ends the bench with its error and exit
    // status 1, as it ends the tlpsim CLI, before anything runs.
    InstrCount warmup = 0;
    InstrCount instrs = 0;
    unsigned jobs = 0;
    try {
        warmup = benchWarmup();
        instrs = benchInstrs();
        benchMixes();
        workloads::setSizeFromEnv();
        jobs = experiment::defaultRunner().jobs();
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "tlpsim bench: %s\n", e.what());
        std::exit(1);
    }
    std::printf("================================================="
                "=============\n");
    std::printf("tlpsim bench: %s\n", what);
    std::printf("reproduces  : %s\n", paper_ref);
    std::printf("scale       : warmup=%llu sim=%llu per core "
                "(TLPSIM_WARMUP/TLPSIM_INSTRS to change)\n",
                static_cast<unsigned long long>(warmup),
                static_cast<unsigned long long>(instrs));
    std::printf("jobs        : %u (TLPSIM_JOBS to change)\n", jobs);
    std::printf("================================================="
                "=============\n");
}

} // namespace tlpsim::bench

#endif // TLPSIM_BENCH_BENCH_COMMON_HH
