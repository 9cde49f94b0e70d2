/**
 * Tests for the crash-safe persistent result store: content addressing
 * and shard partitioning, bit-exact SimResult serialization, the
 * durability contract (truncated / bit-flipped / mis-keyed rows are
 * quarantined and recomputed, never silently served), concurrent
 * writers on one store directory, and the Runner integration — a warm
 * store serves every point without simulating and reproduces the cold
 * run's results bit for bit, while a watchdog timeout becomes a
 * structured failure row that a later (more generous) run retries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/watchdog.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace tlpsim::experiment;
using namespace tlpsim::store;
namespace fs = std::filesystem;

namespace
{

/** Fresh per-test store directory under the gtest temp root. */
std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("tlpsim_" + name);
    fs::remove_all(dir);
    return dir.string();
}

/** A SimResult exercising every serialized field, with doubles chosen
 *  to need the full shortest-round-trip representation. */
SimResult
sampleResult()
{
    SimResult r;
    r.scheme = "tlp";
    r.num_cores = 2;
    r.sim_instrs = 1'000'000;
    r.hit_cycle_cap = true;
    r.instrs = {1'000'000, 987'654};
    r.ipc = {0.1, 1.0 / 3.0};
    r.warmup_end_cycle = {123'456, 0};
    r.window_cycles = {9'999'999, 42};
    r.stats = {{"l1d.miss", 123}, {"dram.tx", 0},
               {"llc.hit", 18'446'744'073'709'551'615ull}};
    return r;
}

void
expectSameResult(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.num_cores, b.num_cores);
    EXPECT_EQ(a.sim_instrs, b.sim_instrs);
    EXPECT_EQ(a.hit_cycle_cap, b.hit_cycle_cap);
    EXPECT_EQ(a.instrs, b.instrs);
    EXPECT_EQ(a.ipc, b.ipc);   // element-wise operator==: bit-exact
    EXPECT_EQ(a.warmup_end_cycle, b.warmup_end_cycle);
    EXPECT_EQ(a.window_cycles, b.window_cycles);
    EXPECT_EQ(a.stats, b.stats);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

// ---------------------------------------------------------- addressing

TEST(StoreFingerprint, StableAndDistinct)
{
    EXPECT_EQ(fingerprint64("abc"), fingerprint64("abc"));
    EXPECT_NE(fingerprint64("abc"), fingerprint64("abd"));
    // Fixed-width lowercase hex: usable as a filename stem everywhere.
    std::string hex = fingerprintHex("abc");
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(StoreShard, PartitionIsDeterministicAndComplete)
{
    const unsigned shards = 4;
    std::set<unsigned> seen;
    for (int i = 0; i < 256; ++i) {
        std::string key = "point-" + std::to_string(i);
        unsigned s = shardOf(key, shards);
        EXPECT_LT(s, shards);
        EXPECT_EQ(s, shardOf(key, shards));   // stable
        seen.insert(s);
        EXPECT_EQ(shardOf(key, 1), 0u);       // unsharded owns everything
        EXPECT_EQ(shardOf(key, 0), 0u);
    }
    // 256 keys across 4 fingerprint-hash shards: every shard gets work.
    EXPECT_EQ(seen.size(), shards);
}

TEST(StoreShard, ParseShardSpec)
{
    ShardSpec s = parseShardSpec("2/8");
    EXPECT_EQ(s.index, 2u);
    EXPECT_EQ(s.count, 8u);
    EXPECT_TRUE(s.sharded());
    EXPECT_FALSE(parseShardSpec("0/1").sharded());
    EXPECT_THROW(parseShardSpec(""), ConfigError);
    EXPECT_THROW(parseShardSpec("3"), ConfigError);
    EXPECT_THROW(parseShardSpec("4/4"), ConfigError);   // i must be < N
    EXPECT_THROW(parseShardSpec("1/0"), ConfigError);
    EXPECT_THROW(parseShardSpec("a/b"), ConfigError);
    EXPECT_THROW(parseShardSpec("1/2/3"), ConfigError);
}

// ------------------------------------------------------- serialization

TEST(StoreSerialize, SimResultRoundTripsBitExact)
{
    SimResult r = sampleResult();
    SimResult back = simResultFromConfig(simResultToConfig(r));
    expectSameResult(r, back);
}

TEST(StoreSerialize, EmptyVectorsRoundTrip)
{
    SimResult r;
    r.scheme = "baseline";
    SimResult back = simResultFromConfig(simResultToConfig(r));
    expectSameResult(r, back);
    EXPECT_TRUE(back.ipc.empty());
    EXPECT_TRUE(back.stats.empty());
}

// ----------------------------------------------------------- store I/O

TEST(ResultStore, SaveThenLoadHit)
{
    ResultStore st(freshDir("save_load"));
    const std::string key = "1c|w|some=config\n";

    EXPECT_FALSE(st.load(key).has_value());   // cold miss
    Config row = simResultToConfig(sampleResult());
    row.set(kStatusKey, kStatusOk);
    st.save(key, row);
    EXPECT_TRUE(fs::exists(st.rowPath(key)));

    auto loaded = st.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->getString(kStatusKey, ""), kStatusOk);
    expectSameResult(sampleResult(), simResultFromConfig(*loaded));

    auto c = st.counters();
    EXPECT_EQ(c.saved, 1u);
    EXPECT_EQ(c.quarantined, 0u);
    EXPECT_EQ(st.okRowCount(), 1u);
}

TEST(ResultStore, TruncatedRowQuarantinedAndRecomputed)
{
    ResultStore st(freshDir("truncated"));
    const std::string key = "1c|w|k=v\n";
    Config row = simResultToConfig(sampleResult());
    row.set(kStatusKey, kStatusOk);
    st.save(key, row);

    // A crash mid-write of a *non-atomic* store would leave exactly
    // this: a row cut short. Ours only sees it via external tampering.
    std::string bytes = readFile(st.rowPath(key));
    writeFile(st.rowPath(key), bytes.substr(0, bytes.size() / 2));

    EXPECT_FALSE(st.load(key).has_value());
    EXPECT_EQ(st.counters().quarantined, 1u);
    EXPECT_FALSE(fs::exists(st.rowPath(key)));   // moved aside, not left

    // Self-healing: recompute (here: re-save) and the hit is back.
    st.save(key, row);
    auto again = st.load(key);
    ASSERT_TRUE(again.has_value());
    expectSameResult(sampleResult(), simResultFromConfig(*again));
}

TEST(ResultStore, BitFlippedRowQuarantined)
{
    ResultStore st(freshDir("bitflip"));
    const std::string key = "1c|w|k=v\n";
    Config row = simResultToConfig(sampleResult());
    row.set(kStatusKey, kStatusOk);
    st.save(key, row);

    std::string bytes = readFile(st.rowPath(key));
    bytes[bytes.size() - 3] ^= 0x40;   // flip a bit inside the payload
    writeFile(st.rowPath(key), bytes);

    EXPECT_FALSE(st.load(key).has_value());
    EXPECT_EQ(st.counters().quarantined, 1u);
    // The bad row is preserved in quarantine/ for post-mortems.
    std::size_t quarantined_files = 0;
    for (const auto &e :
         fs::directory_iterator(fs::path(st.dir()) / "quarantine"))
        quarantined_files += e.is_regular_file() ? 1 : 0;
    EXPECT_EQ(quarantined_files, 1u);
}

TEST(ResultStore, GarbageRowQuarantined)
{
    ResultStore st(freshDir("garbage"));
    const std::string key = "1c|w|k=v\n";
    writeFile(st.rowPath(key), "not a row at all");
    EXPECT_FALSE(st.load(key).has_value());
    EXPECT_EQ(st.counters().quarantined, 1u);
}

TEST(ResultStore, KeyMismatchQuarantined)
{
    // A fingerprint collision (or a mis-copied rows/ dir) puts a valid,
    // checksummed row of the *wrong point* under a key's path. It must
    // read as a miss, never as that point's result.
    ResultStore st(freshDir("collision"));
    const std::string key_a = "1c|alpha|k=v\n";
    const std::string key_b = "1c|beta|k=v\n";
    Config row = simResultToConfig(sampleResult());
    row.set(kStatusKey, kStatusOk);
    st.save(key_a, row);
    fs::copy_file(st.rowPath(key_a), st.rowPath(key_b));

    EXPECT_FALSE(st.load(key_b).has_value());
    EXPECT_EQ(st.counters().quarantined, 1u);
    EXPECT_TRUE(st.load(key_a).has_value());   // the real row is untouched
}

TEST(ResultStore, StaleTempFilesSweptOnOpen)
{
    std::string dir = freshDir("sweep");
    {
        ResultStore st(dir);
        // Simulate a writer killed between temp-write and rename.
        writeFile((fs::path(dir) / "rows" / "deadbeef.row.tmp.123.0")
                      .string(),
                  "partial");
    }
    ResultStore st(dir);   // reopen sweeps the inert temp file
    EXPECT_FALSE(
        fs::exists(fs::path(dir) / "rows" / "deadbeef.row.tmp.123.0"));
}

TEST(ResultStore, ConcurrentWritersProduceOnlyCleanRows)
{
    // Two independent ResultStore instances on one directory stand in
    // for two processes (each has its own mutex; only the atomic rename
    // coordinates them — exactly the two-shard / two-host situation).
    std::string dir = freshDir("concurrent");
    ResultStore a(dir);
    ResultStore b(dir);

    const int kKeys = 64;
    auto key_of = [](int i) { return "1c|w" + std::to_string(i) + "|k=v\n"; };
    auto writer = [&](ResultStore &st) {
        for (int i = 0; i < kKeys; ++i) {
            Config row = simResultToConfig(sampleResult());
            row.set(kStatusKey, kStatusOk);
            row.set("writer_tag", i);   // differing payloads per key are
            st.save(key_of(i), row);    // fine: either rename may win
        }
    };
    std::thread ta(writer, std::ref(a));
    std::thread tb(writer, std::ref(b));
    ta.join();
    tb.join();

    ResultStore check(dir);
    for (int i = 0; i < kKeys; ++i) {
        auto row = check.load(key_of(i));
        ASSERT_TRUE(row.has_value()) << "key " << i;
        expectSameResult(sampleResult(), simResultFromConfig(*row));
    }
    EXPECT_EQ(check.counters().quarantined, 0u);
    EXPECT_EQ(check.okRowCount(), static_cast<std::size_t>(kKeys));
}

// ----------------------------------------------------- runner + store

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

TEST(RunnerStore, WarmStoreServesGridBitIdenticalWithoutSimulating)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    ASSERT_GE(ws.size(), 2u);
    ws.resize(2);
    std::vector<SystemConfig> grid{tinyConfig(),
                                   tinyConfig(SchemeConfig::fromName("tlp"))};
    std::string dir = freshDir("runner_grid");

    auto run_grid = [&](StorePolicy policy) {
        Runner r(2, std::move(policy));
        for (const auto &cfg : grid)
            for (const auto &w : ws)
                r.submitSingle(w, cfg);
        std::vector<SimResult> out;
        for (const auto &cfg : grid)
            for (const auto &w : ws)
                out.push_back(r.single(w, cfg));
        return std::make_tuple(out, r.simulatedCount(), r.storeHitCount());
    };

    // No store at all: the reference results.
    auto [plain, plain_sim, plain_hits] = run_grid({});
    EXPECT_EQ(plain_sim, 4u);
    EXPECT_EQ(plain_hits, 0u);

    // Cold run populates the store...
    StorePolicy cold;
    cold.store = std::make_shared<ResultStore>(dir);
    auto [cold_out, cold_sim, cold_hits] = run_grid(cold);
    EXPECT_EQ(cold_sim, 4u);
    EXPECT_EQ(cold_hits, 0u);

    // ...and a fresh Runner on the same store simulates nothing, yet
    // reproduces the storeless run bit for bit.
    StorePolicy warm;
    warm.store = std::make_shared<ResultStore>(dir);
    auto [warm_out, warm_sim, warm_hits] = run_grid(warm);
    EXPECT_EQ(warm_sim, 0u);
    EXPECT_EQ(warm_hits, 4u);

    ASSERT_EQ(plain.size(), warm_out.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        expectSameResult(plain[i], cold_out[i]);
        expectSameResult(plain[i], warm_out[i]);
    }
}

TEST(RunnerStore, RowFromAnOlderModelIsNotServed)
{
    // A row keyed by the bare effective-config dump — the key every
    // build before the model revision wrote — is a miss: the model
    // changed under the same configuration, so the point re-simulates.
    const auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    const SystemConfig cfg = tinyConfig();
    const std::string dir = freshDir("older_model");
    {
        ResultStore old_build(dir);
        Config row = simResultToConfig(sampleResult());
        row.set(kStatusKey, kStatusOk);
        old_build.save("1c|" + ws[0].pointName() + "|"
                           + cfg.effectiveConfig().serialize(),
                       row);
    }
    StorePolicy policy;
    policy.store = std::make_shared<ResultStore>(dir);
    Runner r(1, std::move(policy));
    const SimResult &res = r.single(ws[0], cfg);
    EXPECT_EQ(r.storeHitCount(), 0u);
    EXPECT_EQ(r.simulatedCount(), 1u);
    EXPECT_EQ(res.scheme, "baseline");
}

TEST(RunnerStore, WatchdogTimeoutBecomesFailureRowThenRetriesLater)
{
    std::string dir = freshDir("watchdog");
    const std::string key = "1c|spin|k=v\n";
    auto spin_forever = [] {
        for (;;)
            watchdog::poll();   // what Simulator::run does every 64Ki cycles
        return SimResult{};
    };

    {
        StorePolicy policy;
        policy.store = std::make_shared<ResultStore>(dir);
        policy.timeout_s = 0.05;
        Runner r(1, policy);
        r.submit(key, spin_forever, "spin|test");

        Runner::Outcome out = r.outcome(key);
        EXPECT_TRUE(out.failed);
        EXPECT_EQ(out.attempts, 2u);   // first run + one bounded retry
        EXPECT_FALSE(out.result.has_value());
        EXPECT_NE(out.error.find("wall-clock"), std::string::npos);
        EXPECT_THROW(r.get(key), SimTimeoutError);
        EXPECT_EQ(r.failedCount(), 1u);
        EXPECT_EQ(r.simulatedCount(), 0u);

        // The failure is recorded as a structured row, not an ok row.
        auto row = policy.store->load(key);
        ASSERT_TRUE(row.has_value());
        EXPECT_EQ(row->getString(kStatusKey, ""), kStatusFailed);
        EXPECT_EQ(row->getUnsigned32("attempts", 0), 2u);
        EXPECT_FALSE(row->getString("error", "").empty());
    }

    // A later run with a usable budget treats the failure row as a
    // miss, recomputes, and overwrites it with an ok row.
    {
        StorePolicy policy;
        policy.store = std::make_shared<ResultStore>(dir);
        policy.timeout_s = 60.0;
        Runner r(1, policy);
        r.submit(key, [] { return sampleResult(); }, "spin|test");
        Runner::Outcome out = r.outcome(key);
        EXPECT_FALSE(out.failed);
        EXPECT_FALSE(out.from_store);
        ASSERT_TRUE(out.result.has_value());
        expectSameResult(sampleResult(), *out.result);
        EXPECT_EQ(r.simulatedCount(), 1u);

        auto row = policy.store->load(key);
        ASSERT_TRUE(row.has_value());
        EXPECT_EQ(row->getString(kStatusKey, ""), kStatusOk);
    }
}

TEST(RunnerStore, CompletionObserverStreamsEveryPoint)
{
    std::string dir = freshDir("observer");
    StorePolicy policy;
    policy.store = std::make_shared<ResultStore>(dir);
    Runner r(1, policy);
    std::vector<std::string> labels;
    std::vector<bool> from_store;
    r.setOnComplete([&](const Runner::CompletionRecord &rec) {
        labels.push_back(rec.label);
        from_store.push_back(rec.outcome.from_store);
        EXPECT_TRUE(rec.outcome.result.has_value());
    });
    r.submit("k1", [] { return sampleResult(); }, "p1");
    r.submit("k2", [] { return sampleResult(); }, "p2");
    r.get("k1");
    r.get("k2");
    ASSERT_EQ(labels.size(), 2u);
    EXPECT_FALSE(from_store[0]);

    // A second runner on the warm store still streams completions, now
    // flagged as store-served — this is what keeps --out JSONL complete
    // across --resume.
    Runner r2(1, policy);
    std::size_t streamed = 0;
    r2.setOnComplete([&](const Runner::CompletionRecord &rec) {
        ++streamed;
        EXPECT_TRUE(rec.outcome.from_store);
    });
    r2.submit("k1", [] { return sampleResult(); }, "p1");
    r2.get("k1");
    EXPECT_EQ(streamed, 1u);
}
