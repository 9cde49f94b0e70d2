/**
 * Concurrency stress suite — the tests this repo runs under
 * ThreadSanitizer (and the existing ASan cell) in CI.
 *
 * Covered surfaces, each a real cross-thread interaction in the sweep
 * engine rather than a synthetic two-thread toy:
 *
 *   - the Runner at high job counts over the shared (mutex-guarded)
 *     trace/graph cache, starting cold so workers race to populate it,
 *     with 1-vs-8-jobs bit-identity as the functional oracle;
 *   - two ResultStore writers racing on one store directory (the
 *     documented "two sweep shards on one store" contract:
 *     write-temp-then-rename, last-writer-wins, both rows valid);
 *   - watchdog expiry concurrent with Simulator::run's 64 Ki-cycle
 *     polling, including the thread_local independence of the watchdog
 *     state;
 *   - OnceCache's hand-off from the one builder of a key to its waiters;
 *   - makeGraph's own threads (edge chunks, CSR vertex ranges), with
 *     several builds of one graph racing each other.
 *
 * Everything here must pass with -fsanitize=thread; a data race in any
 * of these paths is a test failure even when the values happen to come
 * out right.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/once_cache.hh"
#include "common/watchdog.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace tlpsim::experiment;
namespace fs = std::filesystem;

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

/** A design point far too long to finish: only a watchdog timeout can
 *  end it. */
SystemConfig
endlessConfig()
{
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.warmup_instrs = 0;
    cfg.sim_instrs = 2'000'000'000;
    return cfg;
}

std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("tlpsim_" + name);
    fs::remove_all(dir);
    return dir.string();
}

} // namespace

// --------------------------------------------------------------------------
// Watchdog expiry concurrent with Simulator::run polling
// --------------------------------------------------------------------------

TEST(WatchdogConcurrency, ExpiryUnwindsConcurrentRuns)
{
    // Several threads each arm a tiny budget and start a run that could
    // never finish; every one must unwind with SimTimeoutError via the
    // 64 Ki-cycle poll, independently (the state is thread_local).
    constexpr int kThreads = 4;
    std::atomic<int> timeouts{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&timeouts, t] {
            auto ws = workloads::singleCoreWorkloads(
                workloads::SetSize::Tiny);
            Trace trace = workloads::buildTrace(
                ws[static_cast<std::size_t>(t) % ws.size()], 4'000, 1);
            Simulator sim(endlessConfig(),
                          {std::make_shared<MemoryTraceSource>(trace)});
            watchdog::arm(0.05);
            try {
                sim.run();
            } catch (const SimTimeoutError &) {
                ++timeouts;
            }
            watchdog::disarm();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(timeouts.load(), kThreads);
}

TEST(WatchdogConcurrency, ArmedThreadTimesOutWhileUnarmedThreadFinishes)
{
    // thread_local independence: a timing-out neighbour must not leak
    // its deadline (or its unwinding) into a thread that never armed.
    std::atomic<bool> timed_out{false};
    std::atomic<bool> finished{false};

    std::thread doomed([&] {
        auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
        Trace trace = workloads::buildTrace(ws.front(), 4'000, 1);
        Simulator sim(endlessConfig(),
                      {std::make_shared<MemoryTraceSource>(trace)});
        watchdog::arm(0.05);
        try {
            sim.run();
        } catch (const SimTimeoutError &) {
            timed_out = true;
        }
        watchdog::disarm();
    });
    std::thread healthy([&] {
        auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
        Trace trace = workloads::buildTrace(ws.front(), 4'000, 1);
        Simulator sim(tinyConfig(),
                      {std::make_shared<MemoryTraceSource>(trace)});
        SimResult r = sim.run();
        finished = !r.stats.empty();
    });
    doomed.join();
    healthy.join();
    EXPECT_TRUE(timed_out.load());
    EXPECT_TRUE(finished.load());
}

// --------------------------------------------------------------------------
// OnceCache: one builder per key, its value handed to every waiter
// --------------------------------------------------------------------------

TEST(OnceCacheConcurrency, RacingGettersOfAColdKeyBuildItOnce)
{
    // Eight threads ask for one cold key at once. The builder sleeps, so
    // the others arrive while it builds and must wait for its value
    // instead of building again; under TSan this is the hand-off the
    // trace and graph caches rely on.
    constexpr int kThreads = 8;
    OnceCache<int, std::vector<int>> cache;
    std::atomic<int> builds{0};
    std::vector<std::shared_ptr<const std::vector<int>>> seen(kThreads);
    {
        std::latch start(kThreads);
        std::vector<std::jthread> threads;
        threads.reserve(kThreads);
        for (auto &out : seen) {
            threads.emplace_back([&cache, &builds, &start, &out] {
                start.arrive_and_wait();
                out = cache.get(1, [&builds] {
                    ++builds;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return std::vector<int>{1, 2, 3};
                });
            });
        }
    }
    EXPECT_EQ(builds.load(), 1);
    ASSERT_NE(seen.front(), nullptr);
    EXPECT_EQ(*seen.front(), (std::vector<int>{1, 2, 3}));
    for (const auto &p : seen)
        EXPECT_EQ(p, seen.front());
}

// --------------------------------------------------------------------------
// Runner stress: high job counts over the shared trace/graph cache
// --------------------------------------------------------------------------

/**
 * The sanitizer-facing version of the determinism guarantee: start with
 * a cold process-wide trace cache so eight workers race to record the
 * same workloads, and require the resulting grid to be bit-identical to
 * a sequential run (satellite of the 1-vs-N contract in test_runner.cpp,
 * here at 8 jobs and explicitly cold so TSan sees the racy window).
 */
TEST(RunnerConcurrency, ColdCacheGridBitIdentical1v8Jobs)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    ASSERT_GE(ws.size(), 4u);
    ws.resize(4);
    std::vector<SystemConfig> grid{tinyConfig(),
                                   tinyConfig(SchemeConfig::fromName("tlp"))};

    auto run_grid = [&](unsigned jobs) {
        clearTraceCache();   // every worker sees a cold cache
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
    std::vector<SimResult> par = run_grid(8);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].stats, par[i].stats) << "design point " << i;
        EXPECT_EQ(seq[i].ipc, par[i].ipc) << "design point " << i;
        EXPECT_EQ(seq[i].window_cycles, par[i].window_cycles)
            << "design point " << i;
    }
}

TEST(RunnerConcurrency, ManyGettersOnOneJob)
{
    // Eight threads block in get() on the same key while a worker (or a
    // stealing getter) computes it; all must see the same object.
    Runner r(2);
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    r.submitSingle(ws.front(), tinyConfig());
    const std::string key = singlePointKey(ws.front(), tinyConfig());

    constexpr int kGetters = 8;
    std::vector<const SimResult *> seen(kGetters, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kGetters);
    for (int i = 0; i < kGetters; ++i)
        threads.emplace_back([&r, &key, &seen, i] {
            seen[static_cast<std::size_t>(i)] = &r.get(key);
        });
    for (auto &t : threads)
        t.join();
    for (int i = 1; i < kGetters; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
}

// --------------------------------------------------------------------------
// makeGraph's parallel build
// --------------------------------------------------------------------------

TEST(GraphConcurrency, RacingParallelBuildsEqualOneBuiltAlone)
{
    // makeGraph draws edges in chunks, stages the CSR entries by chunk
    // and sorts each bucket of vertices on threads of its own. Three
    // callers building the same graph at once must each get the graph
    // one caller gets alone; under TSan, a race in any split fails here.
    // At scale 15 every kind has 16 or more buckets, so the per-bucket
    // sort runs on several workers.
    for (workloads::GraphKind kind : workloads::kAllGraphKinds) {
        const workloads::Graph alone = workloads::makeGraph(kind, 15, 8, 42);
        std::vector<workloads::Graph> raced(3);
        {
            std::vector<std::jthread> callers;
            callers.reserve(raced.size());
            for (workloads::Graph &g : raced) {
                callers.emplace_back(
                    [&g, kind] { g = workloads::makeGraph(kind, 15, 8, 42); });
            }
        }
        for (const workloads::Graph &g : raced) {
            EXPECT_EQ(g.offsets, alone.offsets) << toString(kind);
            EXPECT_EQ(g.neighbors, alone.neighbors) << toString(kind);
        }
    }
}

// --------------------------------------------------------------------------
// Two ResultStore writers racing on one store directory
// --------------------------------------------------------------------------

TEST(StoreConcurrency, TwoWritersOneDirEveryRowStaysValid)
{
    // The documented multi-shard contract: two independent ResultStore
    // instances (two processes in production, two threads under TSan
    // here) hammer the same directory, overlapping on every key. Each
    // save is write-temp-then-rename, so after the dust settles every
    // row must verify and deserialize — last-writer-wins, never torn.
    const std::string dir = freshDir("two_writers");
    constexpr int kKeys = 32;
    constexpr int kRounds = 8;

    auto writer = [&dir](int salt) {
        store::ResultStore mine(dir);
        for (int round = 0; round < kRounds; ++round) {
            for (int k = 0; k < kKeys; ++k) {
                Config row;
                row.set(store::kStatusKey, store::kStatusOk);
                // Writers disagree on purpose: any surviving row is
                // valid, we only require it to be *intact*.
                row.set("value", k * 1000 + salt);
                mine.save("key-" + std::to_string(k), row);
            }
        }
    };

    std::thread a(writer, 1);
    std::thread b(writer, 2);
    a.join();
    b.join();

    store::ResultStore reader(dir);
    for (int k = 0; k < kKeys; ++k) {
        auto row = reader.load("key-" + std::to_string(k));
        ASSERT_TRUE(row.has_value()) << "key-" << k;
        EXPECT_EQ(row->getString(store::kStatusKey, ""), store::kStatusOk);
        const long long v = row->getInt("value", -1);
        EXPECT_TRUE(v == k * 1000 + 1 || v == k * 1000 + 2)
            << "key-" << k << " holds torn value " << v;
    }
    EXPECT_EQ(reader.counters().quarantined, 0u);
}

TEST(StoreConcurrency, ConcurrentLoadersDuringWrites)
{
    // Readers racing the writers: a load() must only ever see a miss or
    // a fully-published row — never quarantine anything, never crash.
    const std::string dir = freshDir("load_race");
    constexpr int kKeys = 16;
    std::atomic<bool> stop{false};
    std::atomic<int> bad_rows{0};
    std::size_t quarantined = 0;

    std::thread writer([&] {
        store::ResultStore mine(dir);
        for (int round = 0; round < 12; ++round) {
            for (int k = 0; k < kKeys; ++k) {
                Config row;
                row.set(store::kStatusKey, store::kStatusOk);
                row.set("value", k);
                mine.save("key-" + std::to_string(k), row);
            }
        }
        stop = true;
    });
    std::thread loader([&] {
        store::ResultStore mine(dir);
        while (!stop.load()) {
            for (int k = 0; k < kKeys; ++k) {
                if (auto row = mine.load("key-" + std::to_string(k))) {
                    if (row->getInt("value", -1) != k)
                        ++bad_rows;
                }
            }
        }
        quarantined = mine.counters().quarantined;
    });
    writer.join();
    loader.join();
    EXPECT_EQ(bad_rows.load(), 0);
    // A row published before it is whole fails load()'s checks and is
    // quarantined as a miss, which bad_rows never sees.
    EXPECT_EQ(quarantined, 0u);
}
