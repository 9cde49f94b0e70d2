/**
 * @file
 * tlpsim — the unified design-point / sweep driver.
 *
 * Any single design point, or a full workloads × schemes (single-core)
 * or mixes × schemes (multi-core) sweep grid, runs through the same
 * Runner the figure benches use, so results are memoized per design
 * point and tables are bit-identical for any worker count. The whole
 * grid is validated before the first simulation: every unknown scheme,
 * workload, or mix entry is collected and reported in one error.
 *
 * Configuration precedence, lowest to highest:
 *   built-in Table III defaults  (SystemConfig::cascadeLake)
 *   --config FILE                ("key = value" lines; repeatable, later
 *                                 files win)
 *   --set KEY=VALUE              (repeatable)
 *
 * The legacy TLPSIM_WARMUP / TLPSIM_INSTRS knobs apply only when no
 * config source sets warmup_instrs / sim_instrs. TLPSIM_SET picks the
 * workload set (tiny|small|full), TLPSIM_JOBS the worker count
 * (--jobs overrides).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/diag.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "tracefile/format.hh"
#include "workloads/workload.hh"

using namespace tlpsim;
using namespace tlpsim::experiment;

namespace
{

constexpr const char *kUsage = R"(tlpsim — two-level neural off-chip prediction + prefetch filtering simulator

usage: tlpsim [options]

design point:
  --config FILE     apply a config file ("key = value" lines; repeatable)
  --set KEY=VALUE   override one config key (repeatable)
  --scheme NAME     scheme preset (repeatable; overrides the config's
                    scheme for each listed name; scheme.* keys from
                    --set still override preset fields)
  --workload NAME   workload to simulate (repeatable; "file:PATH" replays
                    an external .tlt trace file — see README "External
                    traces"; --sweep defaults to every workload of the
                    TLPSIM_SET set; with --cores N it becomes an N-copy
                    homogeneous mix)
  --cores N         number of cores (shorthand for --set cores=N; defaults
                    to the mix length when --mix is given)
  --mix A,B,...     multi-core mix: one workload name per core, ','/'+'
                    separated (repeatable; the config key "workload.mix"
                    is equivalent)

modes (default: run the configured workloads/mixes once):
  --sweep           run the workloads x schemes grid — or, multi-core,
                    the mixes x schemes grid (default mixes: TLPSIM_MIXES
                    per suite, the Fig. 13 recipe) — through the parallel
                    Runner (default schemes: baseline + the four paper
                    schemes of Figs. 10-14)
  --record-trace OUT  record the one named --workload's in-binary kernel
                    (warmup + sim instructions, the exact stream a
                    simulation consumes) to OUT as a portable .tlt trace
                    file and exit; replay it with --workload file:OUT
  --print-config    print the effective full config and exit
  --describe        print the Table III description and exit
  --list-workloads  list workload names and exit
  --list-schemes    list scheme preset names and exit
  --list-components list registry component names and exit
  --knobs [NAME]    print the declared knob reference (every component's
                    tuning keys, then the machine's core, cache, TLB and
                    DRAM keys at their Table III values, with type,
                    default, description; NAME filters to one component)
                    and exit

persistent sweeps (README "Persistent sweeps"):
  --store DIR       crash-safe on-disk result store: every completed
                    design point persists as a checksummed row keyed by
                    its effective-config fingerprint; stored points are
                    served without simulating
  --resume          rerun an interrupted sweep: requires --store; only
                    missing, quarantined, or previously-failed points
                    simulate
  --shard I/N       deterministic fingerprint partition: this process
                    runs only its 1/N of the grid; shards share a store
                    and merge by union
  --timeout S       wall-clock budget per design point in seconds; a
                    point that exceeds it gets one retry, then a
                    structured failure row, and the sweep continues
                    (exit code 3 if any point failed)
  --out FILE        stream one JSONL row per completed point, flushed as
                    points finish — a crashed run's partial output stays
                    usable

execution:
  --jobs N          worker threads (default: TLPSIM_JOBS or all cores)
  --help            this text

environment: TLPSIM_SET, TLPSIM_JOBS, TLPSIM_WARMUP, TLPSIM_INSTRS (see
README "The tlpsim CLI").
)";

struct Options
{
    std::vector<std::string> config_files;
    std::vector<std::string> sets;
    std::vector<std::string> schemes;
    std::vector<std::string> workload_names;
    std::vector<std::string> mixes;   ///< one "a,b,c,d" list per --mix
    unsigned cores = 0;               ///< 0 = take from config / mix length
    bool sweep = false;
    bool print_config = false;
    bool describe = false;
    bool list_workloads = false;
    bool list_schemes = false;
    bool list_components = false;
    bool knobs = false;
    std::string knobs_component;   ///< "" = every component
    std::string record_trace;      ///< "" = no trace dump
    unsigned jobs = 0;   ///< 0 = TLPSIM_JOBS / hardware default
    std::string store_dir;         ///< "" = no persistent store
    bool resume = false;
    store::ShardSpec shard;        ///< default: unsharded
    double timeout_s = 0.0;        ///< 0 = no watchdog
    std::string out_jsonl;         ///< "" = no streamed output
};

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "tlpsim: %s\n(run tlpsim --help for usage)\n",
                 msg.c_str());
    std::exit(2);
}

/** Strictly "[1-9][0-9]*": no sign, no whitespace, no strtoul wrap of
 *  negatives to huge unsigneds. Dies with a usage error otherwise. */
unsigned
parsePositive(const std::string &v, const char *flag)
{
    bool digits_only = !v.empty();
    for (char ch : v) {
        if (ch < '0' || ch > '9')
            digits_only = false;
    }
    char *end = nullptr;
    unsigned long parsed = digits_only ? std::strtoul(v.c_str(), &end, 10)
                                       : 0;
    if (!digits_only || parsed == 0
        || parsed > std::numeric_limits<unsigned>::max())
        usageError(std::string(flag) + " expects a positive integer, got '"
                   + v + "'");
    return static_cast<unsigned>(parsed);
}

/** A finite, non-negative number of seconds (0 disables the watchdog).
 *  Dies with a usage error otherwise. */
double
parseSeconds(const std::string &v, const char *flag)
{
    char *end = nullptr;
    const double seconds = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(seconds)
        || seconds < 0.0) {
        usageError(std::string(flag) + " expects a finite, non-negative "
                   "number of seconds, got '" + v + "'");
    }
    return seconds;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    auto need_value = [&](int i, const char *flag) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(flag) + " requires a value");
        return argv[i + 1];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--config") {
            o.config_files.push_back(need_value(i, "--config"));
            ++i;
        } else if (arg == "--set") {
            o.sets.push_back(need_value(i, "--set"));
            ++i;
        } else if (arg == "--scheme") {
            o.schemes.push_back(need_value(i, "--scheme"));
            ++i;
        } else if (arg == "--workload") {
            o.workload_names.push_back(need_value(i, "--workload"));
            ++i;
        } else if (arg == "--mix") {
            o.mixes.push_back(need_value(i, "--mix"));
            ++i;
        } else if (arg == "--cores") {
            o.cores = parsePositive(need_value(i, "--cores"), "--cores");
            ++i;
        } else if (arg == "--jobs") {
            o.jobs = parsePositive(need_value(i, "--jobs"), "--jobs");
            ++i;
        } else if (arg == "--store") {
            o.store_dir = need_value(i, "--store");
            ++i;
        } else if (arg == "--resume") {
            o.resume = true;
        } else if (arg == "--shard") {
            o.shard = store::parseShardSpec(need_value(i, "--shard"));
            ++i;
        } else if (arg == "--timeout") {
            o.timeout_s = parseSeconds(need_value(i, "--timeout"),
                                       "--timeout");
            ++i;
        } else if (arg == "--out") {
            o.out_jsonl = need_value(i, "--out");
            ++i;
        } else if (arg == "--record-trace") {
            o.record_trace = need_value(i, "--record-trace");
            ++i;
        } else if (arg == "--sweep") {
            o.sweep = true;
        } else if (arg == "--print-config") {
            o.print_config = true;
        } else if (arg == "--describe") {
            o.describe = true;
        } else if (arg == "--list-workloads") {
            o.list_workloads = true;
        } else if (arg == "--list-schemes") {
            o.list_schemes = true;
        } else if (arg == "--list-components") {
            o.list_components = true;
        } else if (arg == "--knobs") {
            o.knobs = true;
            if (i + 1 < argc && argv[i + 1][0] != '-')
                o.knobs_component = argv[++i];
        } else {
            usageError("unknown option '" + arg + "'");
        }
    }
    return o;
}

struct LayeredConfig
{
    /** All sources merged: files < --set. */
    Config merged;
    /** --set only — per-invocation overrides. When --scheme or
     *  --sweep replaces the scheme axis, only these scheme.* keys are
     *  overlaid on the selected presets; a config file's scheme.* keys
     *  describe *its* scheme and must not collapse a sweep grid. */
    Config overrides;
};

LayeredConfig
layeredConfig(const Options &o)
{
    LayeredConfig lc;
    for (const std::string &path : o.config_files)
        SystemConfig::overlay(lc.merged, Config::parseFile(path));
    for (const std::string &assignment : o.sets) {
        SystemConfig::overlay(lc.overrides,
                              Config::parseAssignments(assignment, "--set"));
    }
    SystemConfig::overlay(lc.merged, lc.overrides);
    // Legacy scale knobs: lowest precedence after built-in defaults.
    const SystemConfig defaults;
    if (!lc.merged.has("warmup_instrs"))
        lc.merged.set("warmup_instrs", envWarmup(defaults.warmup_instrs));
    if (!lc.merged.has("sim_instrs"))
        lc.merged.set("sim_instrs", envInstrs(defaults.sim_instrs));
    return lc;
}

/** Split one --mix value ("a,b" / "a+b") into workload names. */
std::vector<std::string>
splitMixNames(const std::string &value)
{
    Config c;
    c.set("mix", value);
    return c.getStringList("mix");
}

/** Reject every unknown scheme name at once, before anything runs. */
void
validateSchemeNames(const std::vector<std::string> &names)
{
    std::vector<std::string> valid = SchemeConfig::names();
    std::vector<std::string> unknown;
    for (const std::string &n : names) {
        if (std::find(valid.begin(), valid.end(), n) == valid.end())
            unknown.push_back(n);
    }
    if (!unknown.empty()) {
        throw ConfigError("--scheme: unknown scheme"
                          + std::string(unknown.size() > 1 ? "s " : " ")
                          + joinNames(unknown)
                          + "; valid names: " + joinNames(valid));
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += static_cast<char>(c);
        } else if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += static_cast<char>(c);
        }
    }
    return out;
}

/** JSON number rendering; non-finite values (an undefined accuracy on a
 *  zero-prefetch point) become null rather than invalid JSON. */
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Streamed sweep output: one JSON object per completed design point, in
 * completion order (not table order — that is the point: whatever
 * finished before a crash is on disk), flushed per row. Thread-safe;
 * the Runner invokes write() from any worker.
 */
class JsonlWriter
{
  public:
    ~JsonlWriter()
    {
        if (f_ != nullptr)
            std::fclose(f_);
    }

    void
    open(const std::string &path)
    {
        f_ = std::fopen(path.c_str(), "w");
        if (f_ == nullptr)
            throw ConfigError("cannot open --out file '" + path + "'");
    }

    bool active() const { return f_ != nullptr; }

    void
    write(const experiment::Runner::CompletionRecord &rec)
    {
        std::string line = "{\"point\":\"" + jsonEscape(rec.label) + "\"";
        line += ",\"fp\":\"" + store::fingerprintHex(rec.key) + "\"";
        line += ",\"status\":\"";
        const experiment::Runner::Outcome &oc = rec.outcome;
        line += oc.failed ? "failed" : "ok";
        line += "\",\"source\":\"";
        line += oc.from_store ? "store" : "sim";
        line += "\",\"attempts\":" + std::to_string(oc.attempts);
        if (oc.result) {
            const SimResult &r = *oc.result;
            line += ",\"ipc_sum\":" + jsonNum(r.ipcTotal());
            line += ",\"ipc_max\":" + jsonNum(r.ipcMax());
            line += ",\"l1d_mpki\":" + jsonNum(r.mpki("l1d"));
            line += ",\"l2c_mpki\":" + jsonNum(r.mpki("l2c"));
            line += ",\"llc_mpki\":" + jsonNum(r.mpki("llc"));
            line += ",\"dram_tx\":" + std::to_string(r.dramTransactions());
            line += ",\"l1d_pf_acc\":" + jsonNum(r.l1dPrefetchAccuracy());
            line += ",\"hit_cycle_cap\":";
            line += r.hit_cycle_cap ? "true" : "false";
        } else {
            line += ",\"error\":\"" + jsonEscape(oc.error) + "\"";
        }
        line += "}\n";
        std::lock_guard<std::mutex> lock(m_);
        std::fwrite(line.data(), 1, line.size(), f_);
        std::fflush(f_);
    }

  private:
    std::FILE *f_ = nullptr;
    std::mutex m_;
};

/** The canonical per-design-point table every mode prints. Single-core
 *  tables label rows by workload; multi-core ones by mix, in a wider
 *  column, and report the per-core-windowed IPC sum plus the largest
 *  per-core IPC — the plausibility number, bounded by the retire width
 *  (Simulator.FastSlowMixWindowsArePhysicallyPlausible). */
TablePrinter
resultTable(bool multi_core)
{
    std::vector<std::string> cols{multi_core ? "mix" : "workload", "scheme"};
    if (multi_core) {
        cols.push_back("ipc_sum");
        cols.push_back("ipc_max");
    } else {
        cols.push_back("ipc");
    }
    for (const char *c : {"l1d_mpki", "l2c_mpki", "llc_mpki", "dram_tx",
                          "l1d_pf_acc"})
        cols.push_back(c);
    return TablePrinter(std::move(cols), multi_core ? 24 : 14);
}

/** Render one outcome: a metric row, or — for a design point the
 *  watchdog recorded as a structured failure — a FAILED marker row (the
 *  diagnostics already carry the detail; the table stays aligned). */
void
printOutcomeRow(const TablePrinter &tp, const std::string &label,
                const std::string &scheme_name,
                const experiment::Runner::Outcome &oc, bool multi_core)
{
    if (oc.failed) {
        std::vector<std::string> cells{label, scheme_name, "FAILED"};
        cells.resize(multi_core ? 9 : 8, "-");
        tp.printRow(cells);
        return;
    }
    const SimResult &r = *oc.result;
    std::vector<std::string> cells{label, r.scheme,
                                   TablePrinter::fmt(r.ipcTotal(), 4)};
    if (multi_core)
        cells.push_back(TablePrinter::fmt(r.ipcMax(), 4));
    cells.push_back(TablePrinter::fmt(r.mpki("l1d"), 2));
    cells.push_back(TablePrinter::fmt(r.mpki("l2c"), 2));
    cells.push_back(TablePrinter::fmt(r.mpki("llc"), 2));
    cells.push_back(std::to_string(r.dramTransactions()));
    cells.push_back(TablePrinter::fmt(r.l1dPrefetchAccuracy() * 100.0, 1));
    tp.printRow(cells);
}

int
run(const Options &o)
{
    if (o.list_schemes) {
        for (const std::string &n : SchemeConfig::names())
            std::printf("%s\n", n.c_str());
        return 0;
    }
    if (o.list_components) {
        std::printf("prefetchers        : %s\n",
                    prefetcherRegistry().namesLine().c_str());
        std::printf("prefetch filters   : %s\n",
                    filterRegistry().namesLine().c_str());
        std::printf("off-chip predictors: %s\n",
                    offchipRegistry().namesLine().c_str());
        return 0;
    }
    if (o.knobs) {
        std::string ref = knobReference(o.knobs_component);
        if (o.knobs_component.empty())
            ref += "\n" + SystemConfig::machineKnobReference();
        std::fputs(ref.c_str(), stdout);
        return 0;
    }

    auto all_workloads
        = workloads::singleCoreWorkloads(workloads::setSizeFromEnv());
    if (o.list_workloads) {
        for (const auto &w : all_workloads)
            std::printf("%-24s %s\n", w.name.c_str(), toString(w.suite));
        std::printf("%-24s %s\n", "file:PATH",
                    "replay an external .tlt trace file (README "
                    "\"External traces\")");
        return 0;
    }

    LayeredConfig lc = layeredConfig(o);
    if (o.resume && o.store_dir.empty())
        usageError("--resume requires --store DIR (there is nothing to "
                   "resume from without a store)");

    // Mix axis sources: --mix flags plus the workload.mix config key.
    // "workload.*" keys are the workload axis, not SystemConfig fields;
    // consume them before fromConfig rejects them as unknown.
    std::vector<std::vector<std::string>> mix_names;
    for (const std::string &value : o.mixes) {
        std::vector<std::string> names = splitMixNames(value);
        if (names.empty()) {
            usageError("--mix expects workload names (',' or '+' "
                       "separated, one per core), got '" + value + "'");
        }
        mix_names.push_back(std::move(names));
    }
    if (lc.merged.has("workload.mix")) {
        // Consume the key even when its value is blank (a commented-out
        // mix must not turn into an "unknown config key" complaint).
        const auto config_mix = lc.merged.getStringList("workload.mix");
        if (!config_mix.empty())
            mix_names.push_back(config_mix);
        lc.merged.erase("workload.mix");
        lc.overrides.erase("workload.mix");
    }

    // Core-count precedence: --cores beats every config source; with
    // neither set, an explicit mix implies one core per named workload.
    if (o.cores != 0)
        lc.merged.set("cores", o.cores);
    else if (!lc.merged.has("cores") && !mix_names.empty())
        lc.merged.set("cores", mix_names.front().size());

    SystemConfig base = SystemConfig::fromConfig(lc.merged);

    if (!o.record_trace.empty()) {
        if (o.workload_names.size() != 1) {
            usageError("--record-trace expects exactly one --workload NAME "
                       "(the in-binary kernel to dump)");
        }
        const auto idx = workloads::resolveWorkloadIndices(
            all_workloads, o.workload_names, "--workload");
        const workloads::WorkloadSpec &w
            = all_workloads[static_cast<std::size_t>(idx.front())];
        if (w.isFile()) {
            usageError("--record-trace: '" + w.trace_path
                       + "' is already a trace file; nothing to record");
        }
        // The exact stream runSingleCore consumes: warmup + measurement
        // instructions, default recording seed — so a replay of the dump
        // is bit-identical to simulating the kernel in-binary.
        const Trace &trace
            = cachedTrace(w, base.warmup_instrs + base.sim_instrs);
        tracefile::writeTraceFile(
            o.record_trace, trace,
            w.suite == workloads::Suite::Gap ? 1 : 0);
        const auto info = tracefile::readInfo(o.record_trace);
        std::printf("recorded %s -> %s: %llu record(s), %llu bytes, %s\n",
                    w.name.c_str(), o.record_trace.c_str(),
                    static_cast<unsigned long long>(info.record_count),
                    static_cast<unsigned long long>(info.file_size),
                    info.identity().c_str());
        return 0;
    }

    if (o.print_config) {
        Config dump = base.dumpConfig();
        // The mix is config too: a saved --print-config dump must
        // reproduce a single-mix design point, not just its system.
        // (Several mixes are a sweep axis, like repeated --scheme, and
        // have no config-key rendering.)
        if (mix_names.size() == 1)
            dump.set("workload.mix", mix_names.front());
        std::fputs(dump.serialize().c_str(), stdout);
        return 0;
    }
    if (o.describe) {
        std::fputs(base.description().c_str(), stdout);
        return 0;
    }

    // Scheme axis: explicit --scheme list, else the config's scheme for a
    // single run, else baseline + the paper schemes for a sweep. Explicit
    // scheme.* keys from --set override every selected preset's keys
    // (config-file scheme.* keys shape the file's own scheme only,
    // applied through `base` above).
    validateSchemeNames(o.schemes);
    const Config scheme_overrides = lc.overrides.sub("scheme");
    std::vector<SchemeConfig> schemes;
    // Knob-schema offences (a misspelled scheme.offchip.* key, a
    // wrongly-typed value) are collected across every scheme of the grid
    // and reported in one error before anything runs, like the mix axis.
    std::vector<std::string> scheme_errors;
    auto push_scheme = [&](const SchemeConfig &preset) {
        try {
            schemes.push_back(
                SchemeConfig::fromConfig(scheme_overrides, preset));
        } catch (const ConfigError &e) {
            // Presets sharing a component produce the same message once.
            if (std::find(scheme_errors.begin(), scheme_errors.end(),
                          e.what())
                == scheme_errors.end()) {
                scheme_errors.push_back(e.what());
            }
        }
    };
    if (!o.schemes.empty()) {
        for (const std::string &name : o.schemes)
            push_scheme(SchemeConfig::fromName(name));
    } else if (o.sweep) {
        push_scheme(SchemeConfig::fromName("baseline"));
        for (const SchemeConfig &s : SchemeConfig::paperSchemes())
            push_scheme(s);
    } else {
        schemes.push_back(base.scheme);
        // A subtree for a slot the scheme never deploys tunes nothing:
        // reject it as the typo it almost certainly is. (Sweeps validate
        // per selected preset above, where the slot may well be filled.)
        auto flag_dangling = [&scheme_errors](const std::string &slot,
                                              const std::string &component,
                                              const Config &params) {
            if (!component.empty())
                return;
            for (const std::string &k : params.keys()) {
                scheme_errors.push_back(
                    "scheme." + slot + "." + k + " is set but scheme."
                    + slot + " = none deploys no component to consume it");
            }
        };
        flag_dangling("offchip", base.scheme.offchip,
                      base.scheme.offchip_params);
        flag_dangling("l1_filter", base.scheme.l1_filter,
                      base.scheme.l1_filter_params);
        flag_dangling("l2_filter", base.scheme.l2_filter,
                      base.scheme.l2_filter_params);
    }
    if (!scheme_errors.empty())
        throwConfigErrors(scheme_errors);

    std::vector<SystemConfig> grid;
    for (const SchemeConfig &s : schemes) {
        SystemConfig cfg = base;
        cfg.scheme = s;
        grid.push_back(cfg);
    }

    StorePolicy policy;
    if (!o.store_dir.empty()) {
        if (o.resume && !std::filesystem::exists(o.store_dir)) {
            throw ConfigError("--resume: store '" + o.store_dir
                              + "' does not exist; nothing to resume "
                                "(drop --resume to start a fresh store)");
        }
        policy.store = std::make_shared<store::ResultStore>(o.store_dir);
        if (o.resume) {
            diag("store",
                 "resume: " + std::to_string(policy.store->okRowCount())
                     + " ok row(s) already in " + o.store_dir);
        }
    }
    policy.timeout_s = o.timeout_s;

    // The JSONL writer outlives the Runner: workers stream rows into it
    // until the last job completes.
    JsonlWriter jsonl;
    Runner runner(o.jobs == 0 ? jobsFromEnv() : o.jobs, policy);
    if (!o.out_jsonl.empty()) {
        jsonl.open(o.out_jsonl);
        runner.setOnComplete(
            [&jsonl](const Runner::CompletionRecord &rec) {
                jsonl.write(rec);
            });
    }

    // Deterministic fingerprint partition: with --shard i/N this process
    // submits (and prints) only the points it owns; the partition
    // depends only on point keys, never on submission order or worker
    // count, so N shards over one store union to exactly the full grid.
    auto in_shard = [&o](const std::string &key) {
        return store::shardOf(key, o.shard.count) == o.shard.index;
    };

    // Design-point axis: one mix per point. A single-core point is its
    // one-workload mix (same key, label and simulation), so both kinds
    // of run submit, shard and render through the one loop below.
    const bool multi_core = base.num_cores > 1 || !mix_names.empty();
    std::vector<workloads::Mix> mixes;
    if (!multi_core) {
        // Explicit names, else (sweep only) the whole set. All names
        // resolve — or fail together — before anything is submitted.
        std::vector<std::string> names = o.workload_names;
        if (names.empty() && o.sweep) {
            for (const auto &w : all_workloads)
                names.push_back(w.name);
        } else if (names.empty()) {
            throw ConfigError("no workload selected: pass --workload NAME "
                              "(repeatable) or --sweep; --list-workloads "
                              "shows the choices");
        }
        workloads::resolveWorkloadIndices(all_workloads, names,
                                          "--workload");
        for (const std::string &name : names) {
            mixes.push_back(
                workloads::mixFromNames(all_workloads, {name}, "--workload"));
        }
    }
    // Multi-core: validate the whole mix axis in one pass: every workload
    // name of every mix resolves, or the union of unknown names is
    // reported in a single error before any simulation starts.
    if (!mix_names.empty()) {
        std::vector<std::string> every_name;
        for (const auto &names : mix_names)
            every_name.insert(every_name.end(), names.begin(), names.end());
        workloads::resolveWorkloadIndices(all_workloads, every_name,
                                          "--mix / workload.mix");
        for (const auto &names : mix_names) {
            mixes.push_back(workloads::mixFromNames(all_workloads, names,
                                                    "--mix"));
        }
        std::vector<std::string> wrong_width;
        for (const auto &mix : mixes) {
            if (mix.cores() != base.num_cores)
                wrong_width.push_back(mix.name + " ("
                                      + std::to_string(mix.cores()) + ")");
        }
        if (!wrong_width.empty()) {
            throw ConfigError(
                "cores = " + std::to_string(base.num_cores)
                + " but these mixes have a different width: "
                + joinNames(wrong_width)
                + " (one workload per core; adjust --cores or the mix)");
        }
    }
    if (multi_core && !o.workload_names.empty()) {
        // A bare workload name on N cores is the N-copy homogeneous mix;
        // --workload and --mix union into one mix axis, no flag is
        // silently dropped.
        for (int idx : workloads::resolveWorkloadIndices(
                 all_workloads, o.workload_names, "--workload")) {
            workloads::Mix mix;
            const auto &w = all_workloads[static_cast<std::size_t>(idx)];
            mix.name = "homo." + w.name;
            // A file keys by its content identity, as in mixFromNames,
            // not by the workload name stored in it.
            if (w.isFile())
                mix.point_name = "homo." + w.pointName();
            mix.suite = w.suite;
            mix.homogeneous = true;
            mix.workload_index.assign(base.num_cores, idx);
            mixes.push_back(std::move(mix));
        }
    }
    if (mixes.empty() && o.sweep) {
        // The Fig. 13 recipe at the configured width: TLPSIM_MIXES per
        // suite, half homogeneous, seeded — and defaulted — like the
        // benches (bench_common.hh), so "the mixes" agree everywhere.
        mixes = workloads::makeMixes(all_workloads, envMixes(2), 1234,
                                     base.num_cores);
    } else if (mixes.empty()) {
        throw ConfigError("no mix selected: pass --mix A,B,... or "
                          "--workload NAME (an N-copy homogeneous mix) "
                          "or --sweep for the generated mix set");
    }

    // Submit the (shard-filtered) grid up front; render in deterministic
    // order.
    std::size_t owned = 0;
    for (const auto &cfg : grid) {
        for (const auto &mix : mixes) {
            if (!in_shard(mixPointKey(mix, cfg)))
                continue;
            runner.submitMix(all_workloads, mix, cfg);
            ++owned;
        }
    }
    const std::string axis = multi_core
        ? std::to_string(mixes.size()) + " mix(es) x "
            + std::to_string(grid.size()) + " scheme(s) on "
            + std::to_string(base.num_cores) + " cores"
        : std::to_string(mixes.size()) + " workload(s) x "
            + std::to_string(grid.size()) + " scheme(s)";
    const std::string shard_note = o.shard.sharded()
        ? " (shard " + std::to_string(o.shard.index) + "/"
            + std::to_string(o.shard.count) + ": " + std::to_string(owned)
            + " point(s))"
        : "";
    std::fprintf(stderr, "[tlpsim] %s%s, warmup=%llu sim=%llu, jobs=%u\n",
                 axis.c_str(), shard_note.c_str(),
                 static_cast<unsigned long long>(base.warmup_instrs),
                 static_cast<unsigned long long>(base.sim_instrs),
                 runner.jobs());

    TablePrinter tp = resultTable(multi_core);
    tp.printHeader(std::string(multi_core ? "tlpsim mix " : "tlpsim ")
                   + (o.sweep ? "sweep" : "run"));
    for (const auto &mix : mixes) {
        for (const auto &cfg : grid) {
            const std::string key = mixPointKey(mix, cfg);
            if (!in_shard(key))
                continue;
            printOutcomeRow(tp, mix.name, cfg.scheme.name,
                            runner.outcome(key), multi_core);
        }
    }

    // The sweep's persistence ledger, on the stable diagnostic prefix the
    // cli_store test greps ("tlpsim: store: ..."). Exit code 3 reports
    // "the grid completed but some points failed".
    if (policy.store != nullptr) {
        const auto c = policy.store->counters();
        diag("store",
             "reused=" + std::to_string(runner.storeHitCount())
                 + " simulated=" + std::to_string(runner.simulatedCount())
                 + " failed=" + std::to_string(runner.failedCount())
                 + " quarantined=" + std::to_string(c.quarantined)
                 + " saved=" + std::to_string(c.saved));
    }
    return runner.failedCount() > 0 ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "tlpsim: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tlpsim: internal error: %s\n", e.what());
        return 1;
    }
}
