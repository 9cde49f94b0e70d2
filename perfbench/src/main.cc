/**
 * @file
 * One benchmark round: set up a named workload, simulate its design
 * points on a Runner, check every result, and print the round's metrics
 * as the last line of stdout (one JSON object). perfbench/run.py builds
 * this program and runs it once per round, each round in a fresh
 * process: peak RSS is a process high-water mark, and the graph and
 * trace caches live as long as the process.
 *
 *   perfbench --workload sc_sweep|sc_long|mc_mix --seed N --out-dir DIR
 *             [--trace]
 *
 * The seed sets the trace-recording seed. Graphs keep the fixed
 * generator seed workloads::singleCoreWorkloads gives them, and mc_mix
 * keeps a fixed mix draw (see kMixSeed), so every seed simulates the same
 * input graphs and mixes over freshly recorded traces.
 *
 * The program drives tlpsim only through public calls, around which
 * --trace records spans: workloads::GraphCache::get,
 * experiment::cachedTrace / traceSource, Runner::submit / outcome with
 * this file's job function, the Simulator constructor, run(),
 * idleSkippedCycles(), cycle() and core(i).retired(), and
 * store::ResultStore::save / load. --trace also attaches a
 * HotloopProfile to every point and measures component costs; its
 * timings are inflated by that instrumentation and feed only per-layer
 * metrics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/watchdog.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "spans.hh"
#include "store/result_store.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace perfbench;
namespace fs = std::filesystem;

namespace
{

/** The generator seed workloads::singleCoreWorkloads gives every graph. */
constexpr std::uint64_t kGraphSeed = 42;

/**
 * mc_mix draws its mixes with the seed the repository's mix benches use
 * (bench/bench_common.hh), not with --seed. Which workloads share a mix
 * sets how long the mix runs: one draw with mcf_pchase beside fast
 * co-runners simulates 100x its nominal instructions, so a seeded draw
 * would make every time metric measure the draw rather than the
 * simulator. --seed still varies every trace the mixes replay.
 */
constexpr std::uint64_t kMixSeed = 1234;

/** Wall-clock guard per design point: far above any point's run time, so
 *  it only fires on a hang. */
constexpr double kPointTimeoutS = 120.0;

/** The paper's headline DRAM-transaction changes (§VI), printed for
 *  orientation beside the unvalidated model's figures. */
constexpr double kPaperDramDeltaSingle = -30.7;
constexpr double kPaperDramDeltaMulti = -17.7;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    std::string out_dir;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sc_sweep|sc_long|mc_mix --seed N --out-dir DIR "
                 "[--trace]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a whole number, got '" + v + "'");
        } else if (a == "--out-dir") {
            o.out_dir = value();
        } else if (a == "--trace") {
            o.trace = true;
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    if (o.workload != "sc_sweep" && o.workload != "sc_long"
        && o.workload != "mc_mix") {
        usage("unknown workload '" + o.workload + "'");
    }
    if (o.out_dir.empty())
        usage("--out-dir is required");
    return o;
}

// ------------------------------------------------------------ host record

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(memory_sanitizer)
#define PERFBENCH_HAS_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_HAS_SANITIZER 1
#endif

/** Why this build must not report numbers, or nullptr if it may. */
const char *
buildRefusal()
{
#if !defined(NDEBUG)
    return "assertions are enabled (a Debug-like build)";
#elif defined(PERFBENCH_HAS_SANITIZER) || PERFBENCH_SANITIZED
    return "the build is instrumented by a sanitizer";
#else
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return "the build type is not Release";
    return nullptr;
#endif
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
hostJson(const Options &o)
{
#if defined(__clang__)
    const std::string compiler = "clang " __VERSION__;
#elif defined(__GNUC__)
    const std::string compiler = "gcc " __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    char buf[1024];
    std::snprintf(buf, sizeof(buf),
                  "{\"compiler\": \"%s\", \"build_type\": \"%s\", "
                  "\"nproc\": %u, \"cpu\": \"%s\", \"seed\": %llu, "
                  "\"seed_varies\": \"trace recording\", "
                  "\"graph_seed\": %llu, \"mix_seed\": %llu}",
                  jsonEscape(compiler).c_str(), PERFBENCH_BUILD_TYPE,
                  std::thread::hardware_concurrency(),
                  jsonEscape(cpuModel()).c_str(),
                  static_cast<unsigned long long>(o.seed),
                  static_cast<unsigned long long>(kGraphSeed),
                  static_cast<unsigned long long>(kMixSeed));
    return buf;
}

// ---------------------------------------------------------- workload plan

/** Indices into Plan::points of the points one headline ratio compares. */
struct Pair
{
    std::size_t base = 0;
    std::size_t tlp = 0;
    std::vector<std::size_t> singles;   ///< mixes: isolated slot baselines
};

struct Plan
{
    unsigned workers = 1;
    bool use_store = false;
    bool multicore = false;
    InstrCount warmup = 0;
    InstrCount sim = 0;
    std::vector<workloads::WorkloadSpec> ws;
    std::vector<Point> points;
    std::vector<Pair> pairs;
};

SystemConfig
pointConfig(unsigned cores, const std::string &scheme, InstrCount warmup,
            InstrCount sim)
{
    SystemConfig cfg = SystemConfig::cascadeLake(cores);
    cfg.warmup_instrs = warmup;
    cfg.sim_instrs = sim;
    cfg.l1_prefetcher = "ipcp";
    cfg.scheme = SchemeConfig::fromName(scheme);
    return cfg;
}

std::size_t
addSingle(Plan &plan, int w, const std::string &scheme, std::uint64_t seed,
          const std::string &tag = "")
{
    Point p;
    p.slots = {w};
    p.cfg = pointConfig(1, scheme, plan.warmup, plan.sim);
    p.key = experiment::singlePointKey(plan.ws[static_cast<std::size_t>(w)],
                                       p.cfg)
        + "|seed=" + std::to_string(seed);
    p.label = plan.ws[static_cast<std::size_t>(w)].name + "|" + scheme + tag;
    plan.points.push_back(std::move(p));
    return plan.points.size() - 1;
}

std::size_t
addMix(Plan &plan, const workloads::Mix &mix, const std::string &scheme,
       std::uint64_t seed)
{
    Point p;
    p.slots = mix.workload_index;
    p.cfg = pointConfig(mix.cores(), scheme, plan.warmup, plan.sim);
    p.key = experiment::mixPointKey(mix, p.cfg) + "|seed="
        + std::to_string(seed);
    p.label = mix.name + "|" + scheme;
    plan.points.push_back(std::move(p));
    return plan.points.size() - 1;
}

/**
 * The three workloads. Lengths are per core; sc_long's points are ten
 * times sc_sweep's, so its trace (32 B per instruction) dominates peak
 * RSS instead of the graphs.
 */
Plan
makePlan(const Options &o)
{
    Plan plan;
    plan.ws = workloads::singleCoreWorkloads(workloads::SetSize::Small);
    if (o.workload == "sc_sweep") {
        // Figs. 10-12: every small workload under the three schemes that
        // together exercise IPCP, SPP, Hermes, PPF, FLP and SLP, persisted
        // to a store as `tlpsim --sweep --store` does. At 100k measured
        // instructions per point, set-up is about half of the round.
        plan.workers = 2;
        plan.use_store = true;
        plan.warmup = 20'000;
        plan.sim = 100'000;
        for (std::size_t w = 0; w < plan.ws.size(); ++w) {
            const int wi = static_cast<int>(w);
            Pair pair;
            pair.base = addSingle(plan, wi, "baseline", o.seed);
            addSingle(plan, wi, "hermes+ppf", o.seed);
            pair.tlp = addSingle(plan, wi, "tlp", o.seed);
            plan.pairs.push_back(pair);
        }
    } else if (o.workload == "sc_long") {
        // The steady-state hot loop: one pointer-chasing workload, no
        // graph, no Runner parallelism, and most cycles idle-skipped.
        plan.workers = 1;
        plan.warmup = 200'000;
        plan.sim = 1'000'000;
        const int mcf = workloads::resolveWorkloadIndices(
            plan.ws, {"mcf_pchase"}, "sc_long")[0];
        Pair pair;
        pair.base = addSingle(plan, mcf, "baseline", o.seed);
        pair.tlp = addSingle(plan, mcf, "tlp", o.seed);
        plan.pairs.push_back(pair);
    } else {
        // Fig. 13: 4-core mixes with a shared LLC and DRAM, plus the
        // isolated single-core baselines weighted speedup divides by.
        plan.workers = 2;
        plan.multicore = true;
        plan.warmup = 10'000;
        plan.sim = 40'000;
        const auto mixes = workloads::makeMixes(plan.ws, 2, kMixSeed, 4);
        for (const workloads::Mix &mix : mixes) {
            Pair pair;
            pair.base = addMix(plan, mix, "baseline", o.seed);
            pair.tlp = addMix(plan, mix, "tlp", o.seed);
            plan.pairs.push_back(pair);
        }
        // Isolated points come last: they are short, so they fill the
        // workers while the long mixes finish.
        std::map<int, std::size_t> single_of;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            for (int w : mixes[m].workload_index) {
                auto [it, fresh] = single_of.try_emplace(w, 0);
                if (fresh)
                    it->second = addSingle(plan, w, "baseline", o.seed,
                                           "|isolated");
                plan.pairs[m].singles.push_back(it->second);
            }
        }
    }
    return plan;
}

// ----------------------------------------------------------------- set-up

struct SetupResult
{
    double graph_s = 0.0;
    double record_s = 0.0;
    double trace_mb = 0.0;
    std::vector<const Trace *> traces;
};

/** Generate the graphs the plan's GAP workloads read, then record every
 *  trace the points will replay. */
SetupResult
setUp(const Plan &plan, const Options &o, SpanLog &spans,
      std::uint32_t parent)
{
    SetupResult out;
    std::set<int> used;
    for (const Point &p : plan.points)
        used.insert(p.slots.begin(), p.slots.end());

    // A GAP workload is named "<kernel>.<graph>" (singleCoreWorkloads).
    auto reads = [&](workloads::GraphKind kind) {
        const std::string suffix = std::string(".") + toString(kind);
        for (int w : used) {
            const auto &spec = plan.ws[static_cast<std::size_t>(w)];
            if (spec.suite == workloads::Suite::Gap
                && spec.name.size() > suffix.size()
                && spec.name.compare(spec.name.size() - suffix.size(),
                                     suffix.size(), suffix) == 0) {
                return true;
            }
        }
        return false;
    };
    const workloads::ScaleParams sp
        = workloads::scaleParams(workloads::SetSize::Small);
    std::vector<std::shared_ptr<const workloads::Graph>> graphs;
    for (workloads::GraphKind kind : sp.graphs) {
        if (!reads(kind))
            continue;
        SpanLog::Scope span(spans, "workloads.graph", parent);
        const Clock::time_point t0 = Clock::now();
        graphs.push_back(workloads::GraphCache::get(
            kind, sp.graph_scale, sp.graph_degree, kGraphSeed));
        out.graph_s += secondsSince(t0);
    }
    for (int w : used) {
        SpanLog::Scope span(spans, "workloads.record", parent);
        const Clock::time_point t0 = Clock::now();
        const Trace &t = experiment::cachedTrace(
            plan.ws[static_cast<std::size_t>(w)], plan.warmup + plan.sim,
            o.seed);
        out.record_s += secondsSince(t0);
        out.trace_mb += static_cast<double>(t.size() * sizeof(TraceInstr))
            / 1e6;
        out.traces.push_back(&t);
    }
    return out;
}

// ------------------------------------------------------- simulation phase

struct PhaseResult
{
    double start_s = 0.0;
    double end_s = 0.0;
};

PhaseResult
simulate(const Plan &plan, const Options &o, store::ResultStore *rows,
         std::vector<PointRecord> &records, SpanLog &spans,
         std::uint32_t parent, Clock::time_point origin)
{
    // Declared before the Runner, whose destructor joins the workers that
    // use them.
    std::mutex done_m;
    std::condition_variable done_cv;
    std::size_t done = 0;   // guarded by done_m
    std::mutex worker_m;
    std::map<std::thread::id, std::uint32_t> worker_ids;   // by worker_m

    experiment::StorePolicy policy;
    policy.timeout_s = kPointTimeoutS;
    policy.timeout_attempts = 1;
    experiment::Runner runner(plan.workers, policy);

    // With two or more workers, completion is awaited through the
    // observer rather than outcome(): an outcome() on a still-queued job
    // would run it on this thread, adding a worker to the phase. A
    // one-worker Runner has no threads and runs each job inside
    // outcome(), in submission order.
    runner.setOnComplete([&](const experiment::Runner::CompletionRecord &) {
        std::lock_guard<std::mutex> lock(done_m);
        ++done;
        done_cv.notify_all();
    });

    PhaseResult phase;
    phase.start_s = secondsSince(origin);
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const Point &p = plan.points[i];
        PointRecord &rec = records[i];
        rec.submit_s = secondsSince(origin);
        auto job = [&, i]() -> SimResult {
            PointRecord &r = records[i];
            const Point &pt = plan.points[i];
            r.start_s = secondsSince(origin);
            {
                std::lock_guard<std::mutex> lock(worker_m);
                r.worker = worker_ids
                               .try_emplace(std::this_thread::get_id(),
                                            static_cast<std::uint32_t>(
                                                worker_ids.size()))
                               .first->second;
            }
            SpanLog::Scope job_span(spans, "sim.job", parent,
                                    static_cast<std::int64_t>(i));
            SimResult result;
            try {
                std::vector<std::shared_ptr<TraceSource>> sources;
                for (int w : pt.slots) {
                    sources.push_back(experiment::traceSource(
                        plan.ws[static_cast<std::size_t>(w)],
                        plan.warmup + plan.sim, o.seed));
                }
                const std::uint32_t c_span = spans.open(
                    "sim.construct", job_span.id(),
                    static_cast<std::int64_t>(i));
                Clock::time_point t0 = Clock::now();
                Simulator sim(pt.cfg, std::move(sources));
                r.construct_s = secondsSince(t0);
                spans.close(c_span);
                if (o.trace)
                    sim.setProfile(&r.profile);
                {
                    SpanLog::Scope run_span(spans, "sim.run", job_span.id(),
                                            static_cast<std::int64_t>(i));
                    t0 = Clock::now();
                    result = sim.run();
                    r.run_s = secondsSince(t0);
                }
                r.cycles = sim.cycle();
                r.skipped = sim.idleSkippedCycles();
                for (unsigned c = 0; c < pt.cfg.num_cores; ++c)
                    r.retired += sim.core(c).retired();
                if (rows != nullptr) {
                    Config row = experiment::simResultToConfig(result);
                    row.set(store::kStatusKey, store::kStatusOk);
                    SpanLog::Scope save_span(spans, "store.save",
                                             job_span.id(),
                                             static_cast<std::int64_t>(i));
                    t0 = Clock::now();
                    rows->save(pt.key, row);
                    r.save_s = secondsSince(t0);
                }
            } catch (const SimTimeoutError &) {
                throw;   // the Runner records it as a failed point
            } catch (const std::exception &e) {
                r.error = std::string("threw: ") + e.what();
            }
            r.end_s = secondsSince(origin);
            return result;
        };
        // A duplicate key would never complete and the wait below would
        // not return.
        if (!runner.submit(p.key, std::move(job), p.label))
            throw std::logic_error("duplicate design point " + p.label);
    }
    if (runner.jobs() >= 2) {
        std::unique_lock<std::mutex> lock(done_m);
        done_cv.wait(lock, [&] { return done == plan.points.size(); });
    }
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const experiment::Runner::Outcome out
            = runner.outcome(plan.points[i].key);
        if (out.failed)
            records[i].error = "watchdog: " + out.error;
        else if (records[i].error.empty())
            records[i].result = *out.result;
    }
    phase.end_s = secondsSince(origin);
    return phase;
}

// ----------------------------------------------------------------- checks

/** First field in which two results differ, or "" if they are equal. */
std::string
firstDifference(const SimResult &a, const SimResult &b)
{
    if (a.scheme != b.scheme)
        return "scheme";
    if (a.num_cores != b.num_cores)
        return "num_cores";
    if (a.sim_instrs != b.sim_instrs)
        return "sim_instrs";
    if (a.instrs != b.instrs)
        return "instrs";
    if (a.ipc.size() != b.ipc.size())
        return "ipc";
    for (std::size_t c = 0; c < a.ipc.size(); ++c) {
        if (std::memcmp(&a.ipc[c], &b.ipc[c], sizeof(double)) != 0)
            return "ipc." + std::to_string(c);
    }
    if (a.warmup_end_cycle != b.warmup_end_cycle)
        return "warmup_end_cycle";
    if (a.window_cycles != b.window_cycles)
        return "window_cycles";
    if (a.hit_cycle_cap != b.hit_cycle_cap)
        return "hit_cycle_cap";
    if (a.stats != b.stats)
        return "stats";
    return "";
}

/** The point-level output checks; sets rec.error on the first failure. */
void
checkPoint(const Point &p, PointRecord &rec, store::ResultStore *rows,
           SpanLog &spans, std::uint32_t parent, std::int64_t index)
{
    if (!rec.error.empty())
        return;
    const SimResult &r = rec.result;
    if (r.hit_cycle_cap) {
        rec.error = "hit the cycle cap";
        return;
    }
    for (std::size_t c = 0; c < p.cfg.num_cores; ++c) {
        const InstrCount measured = c < r.instrs.size() ? r.instrs[c] : 0;
        if (measured != p.cfg.sim_instrs) {
            rec.error = "core " + std::to_string(c) + " measured "
                + std::to_string(measured) + " instructions, not "
                + std::to_string(p.cfg.sim_instrs);
            return;
        }
        const double ipc = c < r.ipc.size() ? r.ipc[c] : 0.0;
        if (!(ipc > 0.0 && ipc <= p.cfg.core.retire_width)) {
            rec.error = "core " + std::to_string(c) + " IPC "
                + std::to_string(ipc) + " outside (0, "
                + std::to_string(p.cfg.core.retire_width) + "]";
            return;
        }
    }
    if (rows == nullptr)
        return;
    // A store round trip must equal the cold run, field for field.
    SpanLog::Scope span(spans, "store.load", parent, index);
    const Clock::time_point t0 = Clock::now();
    std::optional<Config> row = rows->load(p.key);
    rec.load_s = secondsSince(t0);
    std::error_code ec;
    rec.row_bytes = fs::file_size(rows->rowPath(p.key), ec);
    if (!row || row->getString(store::kStatusKey, "") != store::kStatusOk) {
        rec.error = "store row missing or not ok";
        return;
    }
    const std::string diff
        = firstDifference(experiment::simResultFromConfig(*row), r);
    if (!diff.empty())
        rec.error = "store round trip differs in " + diff;
}

/** FNV-1a 64 over every point's stats, IPC and window cycles. */
class Digest
{
  public:
    void
    bytes(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    template <typename T>
    void
    value(const T &v)
    {
        bytes(&v, sizeof(v));
    }
    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string
digestOf(const Plan &plan, const std::vector<PointRecord> &records)
{
    Digest d;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        d.str(plan.points[i].label);
        const PointRecord &rec = records[i];
        if (!rec.error.empty()) {
            d.str("failed");
            continue;
        }
        for (const auto &[name, v] : rec.result.stats) {
            d.str(name);
            d.value(v);
        }
        for (double ipc : rec.result.ipc)
            d.value(ipc);
        for (Cycle c : rec.result.window_cycles)
            d.value(c);
    }
    return d.hex();
}

// --------------------------------------------------------------- metrics

struct Headline
{
    double speedup_pct = 0.0;      ///< TLP over baseline
    double dram_delta_pct = 0.0;   ///< mean change in dram.transactions
    std::size_t pairs = 0;
};

Headline
headline(const Plan &plan, const std::vector<PointRecord> &records)
{
    Headline h;
    std::vector<double> speedups;
    double dram_sum = 0.0;
    for (const Pair &pair : plan.pairs) {
        bool ok = records[pair.base].error.empty()
            && records[pair.tlp].error.empty();
        for (std::size_t s : pair.singles)
            ok = ok && records[s].error.empty();
        if (!ok)
            continue;
        const SimResult &b = records[pair.base].result;
        const SimResult &t = records[pair.tlp].result;
        if (plan.multicore) {
            std::vector<double> ipc_single;
            for (std::size_t s : pair.singles)
                ipc_single.push_back(records[s].result.ipc[0]);
            speedups.push_back(
                experiment::weightedSpeedupPct(t, b, ipc_single));
        } else {
            speedups.push_back(experiment::percentDelta(t.ipc[0], b.ipc[0]));
        }
        dram_sum += experiment::percentDelta(
            static_cast<double>(t.dramTransactions()),
            static_cast<double>(b.dramTransactions()));
        ++h.pairs;
    }
    h.speedup_pct = experiment::geomeanSpeedupPct(speedups);
    h.dram_delta_pct
        = h.pairs == 0 ? 0.0 : dram_sum / static_cast<double>(h.pairs);
    return h;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest percentile with at least ten samples above it, and that
 *  percentile. Below 21 samples that percentile would not exceed the
 *  median, so the tail is the maximum (percentile 100). */
std::pair<double, double>
tail(std::vector<double> v)
{
    if (v.empty())
        return {0.0, 0.0};
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 21)
        return {v.back(), 100.0};
    const std::size_t idx = n - 11;   // ten samples lie above v[idx]
    return {v[idx],
            100.0 * static_cast<double>(idx + 1) / static_cast<double>(n)};
}

/** Per-layer timings of the traced round (spans, profile, Runner). */
Metrics
timingMetrics(const Plan &plan, const SetupResult &setup,
              const std::vector<PointRecord> &records,
              const PhaseResult &phase)
{
    std::vector<double> construct_ms;
    std::vector<double> point_s;
    std::vector<double> save_ms;
    std::vector<double> load_ms;
    std::vector<double> row_kb;
    double run_s = 0.0;
    double busy_s = 0.0;
    double wait_s = 0.0;
    std::uint64_t retired = 0;
    std::uint64_t nominal = 0;
    std::uint64_t cycles = 0;
    std::uint64_t skipped = 0;
    HotloopProfile prof;
    std::map<std::uint32_t, double> last_end;
    for (const PointRecord &r : records) {
        construct_ms.push_back(r.construct_s * 1e3);
        point_s.push_back(r.construct_s + r.run_s);
        run_s += r.run_s;
        busy_s += r.end_s - r.start_s;
        wait_s += r.start_s - r.submit_s;
        retired += r.retired;
        nominal += r.nominal;
        cycles += r.cycles;
        skipped += r.skipped;
        prof.merge(r.profile);
        double &le = last_end[r.worker];
        le = std::max(le, r.end_s);
        if (plan.use_store) {
            save_ms.push_back(r.save_s * 1e3);
            load_ms.push_back(r.load_s * 1e3);
            row_kb.push_back(static_cast<double>(r.row_bytes) / 1024.0);
        }
    }
    const double phase_s = phase.end_s - phase.start_s;
    // A worker is idle from its last job's end to the end of the phase;
    // a worker that never ran a job is idle for the whole phase.
    double first_idle = phase.start_s;
    if (last_end.size() >= plan.workers) {
        first_idle = phase.end_s;
        for (const auto &[w, end] : last_end)
            first_idle = std::min(first_idle, end);
    }
    const auto [tail_s, tail_pct] = tail(point_s);
    const double total = static_cast<double>(prof.total());
    auto share = [&](int s) {
        return total == 0.0 ? 0.0 : static_cast<double>(prof.ticks[s]) / total;
    };
    auto frac = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    const double n = static_cast<double>(records.size());
    return {
        {"workloads.graph_s", setup.graph_s},
        {"workloads.record_s", setup.record_s},
        {"workloads.trace_mb", setup.trace_mb},
        {"sim.construct_ms", median(construct_ms)},
        {"sim.point_s_p50", median(point_s)},
        {"sim.point_s_tail", tail_s},
        {"sim.point_tail_pct", tail_pct},
        {"sim.points", n},
        {"sim.host_ns_per_instr",
         frac(run_s * 1e9, static_cast<double>(retired))},
        {"sim.cycles_per_instr",
         frac(static_cast<double>(cycles), static_cast<double>(retired))},
        {"sim.idle_skip_frac",
         frac(static_cast<double>(skipped), static_cast<double>(cycles))},
        {"sim.retired_per_nominal",
         frac(static_cast<double>(retired), static_cast<double>(nominal))},
        {"sim.runner_busy_frac", frac(busy_s, plan.workers * phase_s)},
        {"sim.runner_wait_s", frac(wait_s, n)},
        {"sim.runner_tail_s", phase.end_s - first_idle},
        {"store.save_ms", median(save_ms)},
        {"store.load_ms", median(load_ms)},
        {"store.row_kb", median(row_kb)},
        {"core.host_share", share(HotloopProfile::kCore)},
        {"cache.l1i_host_share", share(HotloopProfile::kL1i)},
        {"cache.l1d_host_share", share(HotloopProfile::kL1d)},
        {"cache.l2_host_share", share(HotloopProfile::kL2)},
        {"cache.llc_host_share", share(HotloopProfile::kLlc)},
        {"mem.host_share", share(HotloopProfile::kDram)},
        {"sim.next_event_share", share(HotloopProfile::kNextEvent)},
    };
}

void
printMetricsJson(std::string &out, const Metrics &m)
{
    out += "{";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", i ? ", " : "",
                      m[i].first.c_str(), m[i].second);
        out += buf;
    }
    out += "}";
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB -> MiB
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point origin = Clock::now();
    const Options o = parseArgs(argc, argv);
    if (const char *why = buildRefusal()) {
        std::fprintf(stderr,
                     "perfbench: refusing to measure: %s; build with "
                     "CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                     why);
        return 2;
    }
    const std::string host = hostJson(o);
    std::printf("host: %s\n", host.c_str());

    SpanLog spans(o.trace, origin);
    const std::uint32_t root = spans.open("bench.round", 0);

    // ---- set-up: workload set, graphs, traces ----
    const std::uint32_t setup_span = spans.open("bench.setup", root);
    const Plan plan = makePlan(o);
    const SetupResult setup = setUp(plan, o, spans, setup_span);
    spans.close(setup_span);
    const double setup_s = secondsSince(origin);

    std::unique_ptr<store::ResultStore> rows;
    const fs::path store_dir
        = fs::path(o.out_dir) / ("store-" + std::to_string(getpid()));
    if (plan.use_store) {
        fs::remove_all(store_dir);
        rows = std::make_unique<store::ResultStore>(store_dir.string());
    }

    // ---- simulation ----
    std::vector<PointRecord> records(plan.points.size());
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        const Point &p = plan.points[i];
        records[i].nominal
            = static_cast<std::uint64_t>(p.cfg.num_cores)
            * (p.cfg.warmup_instrs + p.cfg.sim_instrs);
    }
    const std::uint32_t phase_span = spans.open("bench.simulate", root);
    const PhaseResult phase = simulate(plan, o, rows.get(), records, spans,
                                       phase_span, origin);
    spans.close(phase_span);

    // ---- checks ----
    const std::uint32_t check_span = spans.open("bench.check", root);
    std::size_t failed = 0;
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        checkPoint(plan.points[i], records[i], rows.get(), spans, check_span,
                   static_cast<std::int64_t>(i));
        failed += records[i].error.empty() ? 0 : 1;
    }
    const std::string digest = digestOf(plan, records);
    const Headline hl = headline(plan, records);
    spans.close(check_span);
    const double wall_s = secondsSince(origin);
    spans.close(root);

    std::uint64_t nominal = 0;
    for (const PointRecord &r : records)
        nominal += r.nominal;
    const double sim_mips = static_cast<double>(nominal)
        / (phase.end_s - phase.start_s) / 1e6;

    // ---- traced round: per-layer metrics ----
    Metrics layers;
    if (o.trace) {
        layers = timingMetrics(plan, setup, records, phase);
        std::vector<const SimResult *> ok;
        for (const PointRecord &r : records) {
            if (r.error.empty())
                ok.push_back(&r.result);
        }
        for (auto &m : countMetrics(ok))
            layers.push_back(m);
        for (auto &m : componentCosts(setup.traces))
            layers.push_back(m);
        const auto self = spans.selfSecondsByLayer();
        for (const char *layer : {"bench", "workloads", "sim", "store"}) {
            const auto it = self.find(layer);
            layers.emplace_back(std::string(layer) + ".self_s",
                                it == self.end() ? 0.0 : it->second);
        }
        const fs::path span_file = fs::path(o.out_dir)
            / ("spans-" + o.workload + "-seed" + std::to_string(o.seed)
               + ".jsonl");
        spans.write(span_file.string());
        std::printf("spans: %s\n", span_file.string().c_str());
    }
    if (rows)
        fs::remove_all(store_dir);

    // ---- report ----
    const double paper = plan.multicore ? kPaperDramDeltaMulti
                                        : kPaperDramDeltaSingle;
    std::printf("points: attempted %zu, failed %zu\n", plan.points.size(),
                failed);
    for (std::size_t i = 0; i < plan.points.size(); ++i) {
        if (!records[i].error.empty())
            std::printf("FAILED %s: %s\n", plan.points[i].label.c_str(),
                        records[i].error.c_str());
    }
    if (o.trace) {
        // The index is the "point" field of the point's spans.
        for (std::size_t i = 0; i < plan.points.size(); ++i) {
            const PointRecord &r = records[i];
            std::printf("point %3zu %-34s run %7.3f s  cycles %10llu  "
                        "skipped %5.1f %%  retired/nominal %5.2f\n",
                        i, plan.points[i].label.c_str(), r.run_s,
                        static_cast<unsigned long long>(r.cycles),
                        r.cycles ? 100.0 * static_cast<double>(r.skipped)
                                / static_cast<double>(r.cycles)
                                 : 0.0,
                        r.nominal ? static_cast<double>(r.retired)
                                / static_cast<double>(r.nominal)
                                  : 0.0);
        }
    }
    std::printf("stats digest: %s\n", digest.c_str());
    std::printf("model UNVALIDATED (synthetic in-binary kernels, not the "
                "paper's traces; no reference results): TLP vs baseline "
                "over %zu pair(s): speedup %+.3f %%, DRAM transactions "
                "%+.3f %% (paper, for orientation only: %+.1f %%)\n",
                hl.pairs, hl.speedup_pct, hl.dram_delta_pct, paper);

    const Metrics e2e = {
        {"wall_s", wall_s},
        {"setup_s", setup_s},
        {"sim_mips", sim_mips},
        {"peak_rss_mb", peakRssMb()},
        {"tlp_ipc_ratio_pct", 100.0 + hl.speedup_pct},
        {"tlp_dram_ratio_pct", 100.0 + hl.dram_delta_pct},
    };
    std::string json = "{\"workload\": \"" + o.workload
        + "\", \"host\": " + host + ", \"digest\": \"" + digest
        + "\", \"attempted\": " + std::to_string(plan.points.size())
        + ", \"failed\": " + std::to_string(failed) + ", \"metrics\": ";
    printMetricsJson(json, e2e);
    json += ", \"layers\": ";
    printMetricsJson(json, layers);
    json += "}";
    std::printf("%s\n", json.c_str());
    return 0;
}
