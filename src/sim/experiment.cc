#include "sim/experiment.hh"

#include <cmath>
#include <cstdio>
#include <memory>
#include <tuple>

#include "common/once_cache.hh"
#include "tracefile/file_source.hh"

namespace tlpsim::experiment
{

InstrCount
envInstrs(InstrCount fallback)
{
    return Config::fromEnvVar("TLPSIM_INSTRS")
        .getUnsigned("TLPSIM_INSTRS", fallback);
}

InstrCount
envWarmup(InstrCount fallback)
{
    return Config::fromEnvVar("TLPSIM_WARMUP")
        .getUnsigned("TLPSIM_WARMUP", fallback);
}

int
envMixes(int fallback)
{
    return static_cast<int>(
        Config::fromEnvVar("TLPSIM_MIXES")
            .getUnsigned32("TLPSIM_MIXES",
                           static_cast<std::uint32_t>(fallback)));
}

namespace
{

/** Each trace is recorded once per (name, length, seed) and then shared
 *  read-only by every simulation worker. */
OnceCache<std::tuple<std::string, InstrCount, std::uint64_t>, Trace>
    g_traces;

} // namespace

const Trace &
cachedTrace(const workloads::WorkloadSpec &spec, InstrCount instrs,
            std::uint64_t seed)
{
    return *g_traces.get({spec.name, instrs, seed}, [&] {
        return workloads::buildTrace(spec, instrs, seed);
    });
}

void
clearTraceCache()
{
    // Only safe with no simulations in flight (they hold Trace references).
    g_traces.clear();
}

std::shared_ptr<TraceSource>
traceSource(const workloads::WorkloadSpec &spec, InstrCount instrs,
            std::uint64_t seed)
{
    if (spec.isFile())
        return std::make_shared<tracefile::FileTraceSource>(spec.trace_path);
    // The cache slot (and the Trace in it) lives for the process, so the
    // source's reference into it cannot dangle.
    return std::make_shared<MemoryTraceSource>(
        cachedTrace(spec, instrs, seed));
}

SimResult
runSingleCore(const workloads::WorkloadSpec &workload, SystemConfig cfg)
{
    cfg.num_cores = 1;
    Simulator sim(cfg, {traceSource(workload,
                                    cfg.warmup_instrs + cfg.sim_instrs)});
    return sim.run();
}

SimResult
runMix(const std::vector<workloads::WorkloadSpec> &workloads,
       const workloads::Mix &mix, SystemConfig cfg)
{
    // The shared LLC, DRAM bandwidth, and queue depths are all sized
    // from num_cores, so a mix that doesn't occupy every core is a
    // config error — surfaced here with the mix named, before any trace
    // is recorded (the Simulator ctor would also catch it, namelessly).
    if (mix.cores() != cfg.num_cores) {
        throw ConfigError(
            "mix '" + mix.name + "' names " + std::to_string(mix.cores())
            + " workload(s) but cores = " + std::to_string(cfg.num_cores)
            + "; a mix needs exactly one workload per core");
    }
    std::vector<std::shared_ptr<TraceSource>> sources;
    for (int idx : mix.workload_index) {
        sources.push_back(traceSource(workloads[static_cast<size_t>(idx)],
                                      cfg.warmup_instrs + cfg.sim_instrs));
    }
    Simulator sim(cfg, std::move(sources));
    return sim.run();
}

namespace
{

/** "prefix.N" keys for a per-core vector, N = 0..size-1. */
template <typename T, typename Setter>
void
putVector(Config &cfg, const std::string &prefix,
          const std::vector<T> &values, Setter set_one)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        set_one(cfg, prefix + "." + std::to_string(i), values[i]);
}

/** Read "prefix.0", "prefix.1", ... until the first absent index. An
 *  empty vector round-trips as no keys at all. */
template <typename Getter>
void
readVector(const Config &cfg, const std::string &prefix, Getter get_one)
{
    for (std::size_t i = 0;; ++i) {
        const std::string key = prefix + "." + std::to_string(i);
        if (!cfg.has(key))
            break;
        get_one(key);
    }
}

} // namespace

Config
simResultToConfig(const SimResult &r)
{
    Config cfg;
    cfg.set("scheme", r.scheme);
    cfg.set("num_cores", r.num_cores);
    cfg.set("sim_instrs", r.sim_instrs);
    cfg.set("hit_cycle_cap", r.hit_cycle_cap);
    putVector(cfg, "instrs", r.instrs,
              [](Config &c, const std::string &k, InstrCount v) {
                  c.set(k, v);
              });
    putVector(cfg, "ipc", r.ipc,
              [](Config &c, const std::string &k, double v) { c.set(k, v); });
    putVector(cfg, "warmup_end_cycle", r.warmup_end_cycle,
              [](Config &c, const std::string &k, Cycle v) { c.set(k, v); });
    putVector(cfg, "window_cycles", r.window_cycles,
              [](Config &c, const std::string &k, Cycle v) { c.set(k, v); });
    for (const auto &[name, value] : r.stats)
        cfg.set("stat." + name, value);
    return cfg;
}

SimResult
simResultFromConfig(const Config &cfg)
{
    SimResult r;
    r.scheme = cfg.getString("scheme");
    r.num_cores = cfg.getUnsigned32("num_cores", 0);
    r.sim_instrs = cfg.getUnsigned("sim_instrs", 0);
    r.hit_cycle_cap = cfg.getBool("hit_cycle_cap", false);
    readVector(cfg, "instrs", [&](const std::string &k) {
        r.instrs.push_back(cfg.getUnsigned(k, 0));
    });
    readVector(cfg, "ipc", [&](const std::string &k) {
        r.ipc.push_back(cfg.getDouble(k, 0.0));
    });
    readVector(cfg, "warmup_end_cycle", [&](const std::string &k) {
        r.warmup_end_cycle.push_back(cfg.getUnsigned(k, 0));
    });
    readVector(cfg, "window_cycles", [&](const std::string &k) {
        r.window_cycles.push_back(cfg.getUnsigned(k, 0));
    });
    const std::string stat_prefix = "stat.";
    for (const std::string &key : cfg.keys()) {
        if (key.compare(0, stat_prefix.size(), stat_prefix) == 0) {
            r.stats.emplace(key.substr(stat_prefix.size()),
                            cfg.getUnsigned(key, 0));
        }
    }
    return r;
}

double
percentDelta(double value, double baseline)
{
    if (baseline == 0.0)
        return 0.0;
    return (value / baseline - 1.0) * 100.0;
}

double
geomeanSpeedupPct(const std::vector<double> &speedup_pcts)
{
    if (speedup_pcts.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double pct : speedup_pcts)
        log_sum += std::log(std::max(1.0 + pct / 100.0, 1e-6));
    return (std::exp(log_sum / static_cast<double>(speedup_pcts.size()))
            - 1.0)
        * 100.0;
}

double
weightedSpeedupPct(const SimResult &scheme_result,
                   const SimResult &baseline_result,
                   const std::vector<double> &ipc_single)
{
    if (scheme_result.ipc.size() != baseline_result.ipc.size()
        || baseline_result.ipc.size() != ipc_single.size()) {
        throw ConfigError(
            "weighted speedup: slot count mismatch — scheme result has "
            + std::to_string(scheme_result.ipc.size())
            + " core(s), baseline result "
            + std::to_string(baseline_result.ipc.size())
            + ", ipc_single " + std::to_string(ipc_single.size())
            + "; all three must describe the same mix");
    }
    double scheme_ws = 0.0;
    double base_ws = 0.0;
    for (std::size_t c = 0; c < ipc_single.size(); ++c) {
        if (ipc_single[c] <= 0.0)
            continue;
        scheme_ws += scheme_result.ipc[c] / ipc_single[c];
        base_ws += baseline_result.ipc[c] / ipc_single[c];
    }
    return percentDelta(scheme_ws, base_ws);
}

TablePrinter::TablePrinter(std::vector<std::string> columns,
                           unsigned col_width)
    : columns_(std::move(columns)), col_width_(col_width)
{
}

void
TablePrinter::printHeader(const std::string &title) const
{
    std::printf("\n=== %s ===\n", title.c_str());
    printRow(columns_);
    printSeparator();
}

void
TablePrinter::printRow(const std::vector<std::string> &cells) const
{
    // The last of a cell's columns is always a space.
    const int text_width = static_cast<int>(col_width_) - 1;
    for (const auto &c : cells)
        std::printf("%-*s ", text_width, c.c_str());
    std::printf("\n");
}

void
TablePrinter::printSeparator() const
{
    for (std::size_t i = 0; i < columns_.size() * col_width_; ++i)
        std::printf("-");
    std::printf("\n");
}

std::string
TablePrinter::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TablePrinter::fmtPct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, v);
    return buf;
}

} // namespace tlpsim::experiment
