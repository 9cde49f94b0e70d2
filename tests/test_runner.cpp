/**
 * Tests for the parallel experiment engine: job memoization, work
 * stealing, env parsing, and — most importantly — that a workload grid
 * run with 1 worker and with N workers produces bit-identical
 * SimResult::stats maps (guards the runner and the shared trace/graph
 * caches against data races and scheduling-dependent behaviour).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>

#include "sim/runner.hh"
#include "tracefile/format.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace tlpsim::experiment;

namespace
{

SystemConfig
tinyConfig(const SchemeConfig &scheme = SchemeConfig::fromName("baseline"))
{
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.warmup_instrs = 5'000;
    cfg.sim_instrs = 20'000;
    cfg.scheme = scheme;
    return cfg;
}

} // namespace

TEST(Runner, MemoizesByKey)
{
    Runner r(1);
    std::atomic<int> calls{0};
    auto fn = [&] {
        ++calls;
        SimResult res;
        res.scheme = "x";
        return res;
    };
    EXPECT_TRUE(r.submit("k", fn));
    EXPECT_FALSE(r.submit("k", fn));   // duplicate submit is a no-op
    const SimResult &a = r.get("k");
    EXPECT_FALSE(r.submit("k", fn));   // a done key is not resubmitted
    const SimResult &b = r.get("k");
    EXPECT_EQ(&a, &b);                 // same cached object
    EXPECT_EQ(calls.load(), 1);
}

TEST(Runner, InlineExecutionWithoutWorkers)
{
    // One job = zero threads; get() must run the job on this thread.
    Runner r(1);
    EXPECT_EQ(r.jobs(), 1u);
    r.submit("a", [] { return SimResult{}; });
    r.get("a");
    EXPECT_EQ(r.simulatedCount(), 1u);
}

TEST(Runner, PropagatesJobExceptions)
{
    Runner r(2);
    r.submit("boom", []() -> SimResult {
        throw std::runtime_error("job failed");
    });
    EXPECT_THROW(r.get("boom"), std::runtime_error);
}

TEST(Runner, GetOnUnsubmittedKeyThrowsNamingTheKey)
{
    // A mis-keyed lookup must fail loudly in every build type: waiting
    // for a job that will never exist would hang the sweep forever, and
    // the error has to name the key so the caller can see *which* point
    // was never queued.
    Runner r(1);
    r.submit("present", [] { return SimResult{}; });
    r.get("present");
    try {
        r.get("missing-point-key");
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("missing-point-key"), std::string::npos) << msg;
        EXPECT_NE(msg.find("never submitted"), std::string::npos) << msg;
    }
    EXPECT_THROW(r.outcome("missing-point-key"), std::logic_error);
}

TEST(Runner, JobsFromEnv)
{
    ::setenv("TLPSIM_JOBS", "3", 1);
    EXPECT_EQ(jobsFromEnv(), 3u);
    // A malformed or zero count fails, naming the variable, instead of
    // falling back, being cut short ("2x" -> 2) or wrapping ("-1" -> 2^32
    // - 1 workers). Only jobsFromEnv() runs: no Runner is built from them.
    for (const char *bad : {"not-a-number", "-1", "0", "2x", ""}) {
        ::setenv("TLPSIM_JOBS", bad, 1);
        EXPECT_THROW(
            {
                try {
                    jobsFromEnv();
                } catch (const ConfigError &e) {
                    EXPECT_NE(std::string(e.what()).find("TLPSIM_JOBS"),
                              std::string::npos)
                        << e.what();
                    throw;
                }
            },
            ConfigError)
            << "TLPSIM_JOBS='" << bad << "'";
    }
    ::unsetenv("TLPSIM_JOBS");
    EXPECT_GE(jobsFromEnv(), 1u);
}

TEST(Runner, ConfigKeyDistinguishesDesignPoints)
{
    SystemConfig a = tinyConfig();
    SystemConfig b = tinyConfig(SchemeConfig::fromName("tlp"));
    SystemConfig c = tinyConfig();
    c.sim_instrs += 1;
    EXPECT_NE(configKey(a), configKey(b));
    EXPECT_NE(configKey(a), configKey(c));
    EXPECT_EQ(configKey(a), configKey(tinyConfig()));
}

/**
 * The CLI runs a single-core point as its one-workload mix, so the two
 * must be the same point: one key (hence one store row and one shard),
 * the workload's name as the mix's, and the same simulation. Checked for
 * an in-binary kernel and for a file trace, which keys by content.
 */
TEST(Runner, OneWorkloadMixIsItsSingleCorePoint)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    const SystemConfig cfg = tinyConfig(SchemeConfig::fromName("tlp"));
    const std::string path = (std::filesystem::path(::testing::TempDir())
                              / "tlpsim_one_workload_mix.tlt")
                                 .string();
    tracefile::writeTraceFile(
        path, cachedTrace(ws[0], cfg.warmup_instrs + cfg.sim_instrs), 1);

    for (const std::string &name : {ws[0].name, "file:" + path}) {
        const int idx
            = workloads::resolveWorkloadIndices(ws, {name}, "test").front();
        const workloads::WorkloadSpec w = ws[static_cast<std::size_t>(idx)];
        const workloads::Mix mix = workloads::mixFromNames(ws, {name}, "test");
        EXPECT_EQ(singlePointKey(w, cfg), mixPointKey(mix, cfg)) << name;
        EXPECT_EQ(mix.name, w.name) << name;

        const SimResult single = runSingleCore(w, cfg);
        const SimResult mixed = runMix(ws, mix, cfg);
        EXPECT_EQ(single.stats, mixed.stats) << name;
        EXPECT_EQ(single.ipc, mixed.ipc) << name;
        EXPECT_EQ(single.instrs, mixed.instrs) << name;
        EXPECT_EQ(single.window_cycles, mixed.window_cycles) << name;
    }
    std::filesystem::remove(path);
}

/**
 * The headline guarantee: the same grid sharded over 4 workers yields
 * bit-identical per-workload stats to a sequential run in the same
 * process. Any data race or scheduling dependence in the runner, the
 * trace cache, or the graph cache shows up here. The grid is every tiny
 * workload, SPEC and GAP, under baseline, Hermes and TLP.
 */
TEST(Runner, GridDeterministicAcrossWorkerCounts)
{
    const auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    std::vector<SystemConfig> grid;
    for (const char *scheme : {"baseline", "hermes", "tlp"})
        grid.push_back(tinyConfig(SchemeConfig::fromName(scheme)));

    auto run_grid = [&](unsigned jobs) {
        Runner r(jobs);
        for (const auto &cfg : grid) {
            for (const auto &w : ws)
                r.submitSingle(w, cfg);
        }
        std::vector<SimResult> out;
        for (const auto &cfg : grid) {
            for (const auto &w : ws)
                out.push_back(r.single(w, cfg));
        }
        return out;
    };

    std::vector<SimResult> seq = run_grid(1);
    std::vector<SimResult> par = run_grid(4);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].stats, par[i].stats) << "design point " << i;
        EXPECT_EQ(seq[i].window_cycles, par[i].window_cycles)
            << "design point " << i;
        EXPECT_EQ(seq[i].ipc, par[i].ipc) << "design point " << i;
        EXPECT_EQ(seq[i].hit_cycle_cap, par[i].hit_cycle_cap);
    }
}

/**
 * The CLI mix-sweep shape: a full mixes x schemes grid (the Fig. 13
 * recipe at 2 cores) must be bit-identical whether it runs on 1 worker
 * or several — the guarantee the tlpsim --cores/--mix sweep mode rests
 * on, including the per-core measured-instruction counts.
 */
TEST(Runner, MixSchemeGridDeterministicAcrossWorkerCounts)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    auto mixes = workloads::makeMixes(ws, 2, 1234, 2);
    ASSERT_GE(mixes.size(), 2u);
    mixes.resize(2);

    std::vector<SystemConfig> grid;
    for (const SchemeConfig &s :
         {SchemeConfig::fromName("baseline"), SchemeConfig::fromName("tlp")}) {
        SystemConfig cfg = SystemConfig::cascadeLake(2);
        cfg.warmup_instrs = 2'000;
        cfg.sim_instrs = 8'000;
        cfg.scheme = s;
        grid.push_back(cfg);
    }

    auto run_grid = [&](unsigned jobs) {
        Runner r(jobs);
        for (const auto &cfg : grid) {
            for (const auto &mix : mixes)
                r.submitMix(ws, mix, cfg);
        }
        std::vector<SimResult> out;
        for (const auto &cfg : grid) {
            for (const auto &mix : mixes)
                out.push_back(r.mix(ws, mix, cfg));
        }
        return out;
    };

    std::vector<SimResult> seq = run_grid(1);
    std::vector<SimResult> par = run_grid(4);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].stats, par[i].stats) << "design point " << i;
        EXPECT_EQ(seq[i].ipc, par[i].ipc) << "design point " << i;
        EXPECT_EQ(seq[i].instrs, par[i].instrs) << "design point " << i;
        EXPECT_EQ(seq[i].window_cycles, par[i].window_cycles)
            << "design point " << i;
        EXPECT_EQ(seq[i].warmup_end_cycle, par[i].warmup_end_cycle)
            << "design point " << i;
    }
}

TEST(Runner, MixGridDeterministicAcrossWorkerCounts)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    auto mixes = workloads::makeMixes(ws, 1, 99);
    ASSERT_FALSE(mixes.empty());
    mixes.resize(1);

    SystemConfig cfg = SystemConfig::cascadeLake(4);
    cfg.warmup_instrs = 2'000;
    cfg.sim_instrs = 8'000;

    auto run_grid = [&](unsigned jobs) {
        Runner r(jobs);
        for (const auto &mix : mixes)
            r.submitMix(ws, mix, cfg);
        std::vector<SimResult> out;
        for (const auto &mix : mixes)
            out.push_back(r.mix(ws, mix, cfg));
        return out;
    };

    std::vector<SimResult> seq = run_grid(1);
    std::vector<SimResult> par = run_grid(3);
    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].stats, par[i].stats);
        EXPECT_EQ(seq[i].ipc, par[i].ipc);
    }
}
