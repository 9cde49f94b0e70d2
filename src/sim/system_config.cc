#include "sim/system_config.hh"

#include <cmath>
#include <cstdio>
#include <map>

namespace tlpsim
{

// ---------------------------------------------------------------- schemes

namespace
{

/** A preset's scheme keys: what it sets beyond the component defaults. */
using PresetKeys = std::vector<std::pair<std::string, std::string>>;

/** Every named design point of the paper, keyed by scheme name. Each
 *  entry states only what differs from the deployed components' declared
 *  knob defaults (flp: selective 30/8, hermes: immediate tau_high 4). */
const std::map<std::string, PresetKeys> &
presetTable()
{
    static const std::map<std::string, PresetKeys> table = {
        {"baseline", {}},
        {"ppf", {{"l2_filter", "ppf"}}},
        {"hermes", {{"offchip", "hermes"}}},
        {"hermes+ppf", {{"offchip", "hermes"}, {"l2_filter", "ppf"}}},
        {"tlp", {{"offchip", "flp"}, {"l1_filter", "slp"}}},
        // Fig. 15 ablations. Without the delay mechanism FLP fires like
        // Hermes; SLP without FLP has no FLP output to use as a feature.
        {"flp",
         {{"offchip", "flp"},
          {"offchip.policy", "immediate"},
          {"offchip.tau_high", "4"}}},
        {"slp",
         {{"l1_filter", "slp"}, {"l1_filter.use_flp_feature", "false"}}},
        {"tsp",
         {{"offchip", "flp"},
          {"offchip.policy", "immediate"},
          {"offchip.tau_high", "4"},
          {"l1_filter", "slp"},
          {"l1_filter.use_flp_feature", "false"}}},
        {"delayed_tsp",
         {{"offchip", "flp"},
          {"offchip.policy", "always_delay"},
          {"l1_filter", "slp"},
          {"l1_filter.use_flp_feature", "false"}}},
        {"selective_tsp",
         {{"offchip", "flp"},
          {"l1_filter", "slp"},
          {"l1_filter.use_flp_feature", "false"}}},
        // Fig. 17: 4x tables ≈ +7.7 KB.
        {"hermes+7kb",
         {{"offchip", "hermes"}, {"offchip.table_scale_shift", "2"}}},
    };
    return table;
}

/** Config files accept "none"/"no" for an empty component slot. */
std::string
normalizeComponentName(std::string name)
{
    return name == "none" || name == "no" ? std::string{} : name;
}

/** Render an empty component slot as "none" in config dumps. */
const std::string &
renderComponentName(const std::string &name)
{
    static const std::string none = "none";
    return name.empty() ? none : name;
}

/**
 * Knob-schema check of one forwarded component subtree: every key of
 * @p params must be a knob @p component declared (with a well-typed
 * value). Returns one error string per offence, keys prefixed with
 * @p prefix ("scheme.offchip."). A slot without a component has
 * nothing to check.
 */
template <typename Reg>
std::vector<std::string>
subtreeKnobErrors(const Reg &reg, const std::string &component,
                  const Config &params, const std::string &prefix)
{
    if (component.empty() || params.empty())
        return {};
    return reg.knobs(component).check(
        params, reg.kind() + " '" + component + "'", prefix);
}

} // namespace

SchemeConfig
SchemeConfig::fromName(const std::string &name)
{
    const auto &table = presetTable();
    auto it = table.find(name);
    if (it == table.end()) {
        throw ConfigError("unknown scheme '" + name
                          + "'; valid names: " + joinNames(names()));
    }
    Config keys;
    keys.set("name", name);
    for (const auto &[key, value] : it->second)
        keys.set(key, value);
    return fromConfig(keys);
}

std::vector<std::string>
SchemeConfig::names()
{
    std::vector<std::string> out;
    for (const auto &[n, keys] : presetTable())
        out.push_back(n);
    return out;
}

std::vector<SchemeConfig>
SchemeConfig::paperSchemes()
{
    return {fromName("ppf"), fromName("hermes"), fromName("hermes+ppf"),
            fromName("tlp")};
}

std::vector<SchemeConfig>
SchemeConfig::ablationSchemes()
{
    return {fromName("flp"), fromName("slp"), fromName("tsp"),
            fromName("delayed_tsp"), fromName("selective_tsp"),
            fromName("tlp")};
}

SchemeConfig
SchemeConfig::fromConfig(const Config &cfg)
{
    return fromConfig(cfg, SchemeConfig{});
}

SchemeConfig
SchemeConfig::fromConfig(const Config &cfg, const SchemeConfig &defaults)
{
    SchemeConfig s = defaults;
    s.name = cfg.getString("name", s.name);

    // Arbitrary per-component subtrees overlay the defaults' subtrees —
    // unless cfg swaps the component, whose knobs those were. The keys
    // are component-defined and checked against its schema below.
    auto slot = [&cfg](const std::string &key, std::string &component,
                       Config &params) {
        std::string chosen
            = normalizeComponentName(cfg.getString(key, component));
        if (chosen != component)
            params = Config{};
        component = chosen;
        params.merge(cfg.sub(key));
    };
    slot("offchip", s.offchip, s.offchip_params);
    slot("l1_filter", s.l1_filter, s.l1_filter_params);
    slot("l2_filter", s.l2_filter, s.l2_filter_params);

    if (s.hasOffchip() && !offchipRegistry().contains(s.offchip)) {
        throw ConfigError("scheme.offchip: unknown off-chip predictor '"
                          + s.offchip + "'; valid names: "
                          + offchipRegistry().namesLine());
    }
    for (const std::string &f : {s.l1_filter, s.l2_filter}) {
        if (!f.empty() && !filterRegistry().contains(f)) {
            throw ConfigError("scheme filter: unknown prefetch filter '" + f
                              + "'; valid names: "
                              + filterRegistry().namesLine());
        }
    }

    // Unknown relative keys ("scheme.bogus") — everything understood was
    // consumed by a getter above or forwarded by a sub() — and the
    // misspelled-tuning-key net: every forwarded subtree key must be a
    // knob its component declared, every offender reported at once.
    std::vector<std::string> errors;
    if (std::vector<std::string> stray = cfg.unconsumedKeys();
        !stray.empty()) {
        std::vector<std::string> valid;
        for (const std::string &k : SchemeConfig{}.toConfig().keys())
            valid.push_back("scheme." + k);
        for (const std::string &key : stray) {
            errors.push_back(
                "unknown config key 'scheme." + key + "'; valid scheme "
                "keys: " + joinNames(valid)
                + " (and the scheme.offchip.*, scheme.l1_filter.*, "
                  "scheme.l2_filter.* component subtrees)");
        }
    }
    for (std::vector<std::string> slot_errors :
         {subtreeKnobErrors(offchipRegistry(), s.offchip, s.offchip_params,
                            "scheme.offchip."),
          subtreeKnobErrors(filterRegistry(), s.l1_filter,
                            s.l1_filter_params, "scheme.l1_filter."),
          subtreeKnobErrors(filterRegistry(), s.l2_filter,
                            s.l2_filter_params, "scheme.l2_filter.")}) {
        errors.insert(errors.end(), slot_errors.begin(), slot_errors.end());
    }
    if (!errors.empty())
        throwConfigErrors(errors);
    return s;
}

Config
SchemeConfig::toConfig() const
{
    Config c;
    c.set("name", name);
    c.set("offchip", renderComponentName(offchip));
    c.set("l1_filter", renderComponentName(l1_filter));
    c.set("l2_filter", renderComponentName(l2_filter));
    for (const std::string &k : offchip_params.keys())
        c.set("offchip." + k, offchip_params.getString(k));
    for (const std::string &k : l1_filter_params.keys())
        c.set("l1_filter." + k, l1_filter_params.getString(k));
    for (const std::string &k : l2_filter_params.keys())
        c.set("l2_filter." + k, l2_filter_params.getString(k));
    return c;
}

Config
SchemeConfig::offchipBuildConfig() const
{
    return hasOffchip() ? offchip_params : Config{};
}

Config
SchemeConfig::l1FilterBuildConfig() const
{
    return hasL1Filter() ? l1_filter_params : Config{};
}

Config
SchemeConfig::l2FilterBuildConfig() const
{
    return hasL2Filter() ? l2_filter_params : Config{};
}

// ----------------------------------------------------------- SystemConfig

SystemConfig
SystemConfig::cascadeLake(unsigned cores)
{
    SystemConfig c;
    c.num_cores = cores;
    c.dram_gbps_per_core = cores == 1 ? 12.8 : 3.2;
    // The core and the DRAM controller run at their Params defaults,
    // which are the Table III values.

    c.l1i.level = MemLevel::L1D;    // stats-only; L1I has no prefetcher
    c.l1i.level_num = 1;
    c.l1i.sets = 64;
    c.l1i.ways = 8;
    c.l1i.latency = 4;
    c.l1i.mshrs = 10;
    c.l1i.rq_size = 16;
    c.l1i.wq_size = 4;
    c.l1i.pq_size = 4;

    c.l1d.level = MemLevel::L1D;
    c.l1d.level_num = 1;
    c.l1d.sets = 64;        // 32 KB, 8-way
    c.l1d.ways = 8;
    c.l1d.latency = 4;
    c.l1d.mshrs = 10;
    c.l1d.rq_size = 32;
    c.l1d.wq_size = 32;
    c.l1d.pq_size = 16;

    c.l2.level = MemLevel::L2C;
    c.l2.level_num = 2;
    c.l2.sets = 1024;       // 1 MB, 16-way
    c.l2.ways = 16;
    c.l2.latency = 10;
    c.l2.mshrs = 16;
    c.l2.rq_size = 32;
    c.l2.wq_size = 32;
    c.l2.pq_size = 32;

    c.llc.level = MemLevel::LLC;
    c.llc.level_num = 3;
    c.llc.sets = 2048;      // 1.375 MB, 11-way (per core; scaled by cores)
    c.llc.ways = 11;
    c.llc.latency = 40;     // Table III: 36/56 cycles
    c.llc.mshrs = 64;
    c.llc.rq_size = 64;
    c.llc.wq_size = 64;
    c.llc.pq_size = 64;

    c.dtlb.name = "dtlb";
    c.dtlb.entries = 64;
    c.dtlb.ways = 4;
    c.dtlb.latency = 1;

    c.stlb.name = "stlb";
    c.stlb.entries = 1536;
    c.stlb.ways = 12;
    c.stlb.latency = 8;
    return c;
}

namespace
{

const ParamSchema<Core::Params> &
coreKnobs()
{
    using P = Core::Params;
    static const ParamSchema<P> schema{
        {"rob_size", &P::rob_size, "reorder-buffer entries"},
        {"fetch_width", &P::fetch_width, "instructions fetched per cycle"},
        {"retire_width", &P::retire_width,
         "instructions retired per cycle"},
        {"lq_size", &P::lq_size, "load-queue entries"},
        {"sq_size", &P::sq_size, "store-queue entries"},
        {"load_ports", &P::load_ports, "loads issued per cycle"},
        {"mispredict_penalty", &P::mispredict_penalty,
         "refill bubbles after a mispredicted branch resolves"},
        {"spec_latency", &P::spec_latency,
         "cycles before an off-chip prediction's DRAM request issues"},
    };
    return schema;
}

const ParamSchema<Cache::Params> &
cacheKnobs()
{
    using P = Cache::Params;
    static const ParamSchema<P> schema{
        {"sets", &P::sets, "sets (LLC: per core)"},
        {"ways", &P::ways, "associativity"},
        {"latency", &P::latency, "hit latency (cycles)"},
        {"mshrs", &P::mshrs, "miss-status holding registers (LLC: per core)"},
        {"rq_size", &P::rq_size, "read-queue entries (LLC: per core)"},
        {"wq_size", &P::wq_size, "write-queue entries (LLC: per core)"},
        {"pq_size", &P::pq_size, "prefetch-queue entries (LLC: per core)"},
        {"lookups_per_cycle", &P::lookups_per_cycle,
         "tag lookups per cycle across the RQ, WQ and PQ"},
    };
    return schema;
}

const ParamSchema<Tlb::Params> &
tlbKnobs()
{
    using P = Tlb::Params;
    static const ParamSchema<P> schema{
        {"entries", &P::entries, "translation entries"},
        {"ways", &P::ways, "associativity"},
        {"latency", &P::latency, "hit latency (cycles)"},
    };
    return schema;
}

const ParamSchema<DramController::Params> &
dramKnobs()
{
    using P = DramController::Params;
    static const ParamSchema<P> schema{
        {"banks", &P::banks, "banks (one open row each)"},
        {"blocks_per_row", &P::blocks_per_row,
         "64 B blocks per row buffer"},
        {"t_rp", &P::t_rp, "row precharge time (cycles)"},
        {"t_rcd", &P::t_rcd, "row-to-column delay (cycles)"},
        {"t_cas", &P::t_cas, "column access latency (cycles)"},
        {"rq_size", &P::rq_size, "read-queue entries"},
        {"wq_size", &P::wq_size, "write-queue entries"},
        {"spec_buffer_entries", &P::spec_buffer_entries,
         "speculative-line buffer entries per core (Hermes path)"},
    };
    return schema;
}

/** Call @p fn(prefix, schema, params) for every block of the machine:
 *  the Params of @p c that the "<prefix>.<knob>" keys fill. */
template <typename Self, typename Fn>
void
forEachMachineBlock(Self &c, Fn &&fn)
{
    fn("core", coreKnobs(), c.core);
    fn("l1i", cacheKnobs(), c.l1i);
    fn("l1d", cacheKnobs(), c.l1d);
    fn("l2", cacheKnobs(), c.l2);
    fn("llc", cacheKnobs(), c.llc);
    fn("dtlb", tlbKnobs(), c.dtlb);
    fn("stlb", tlbKnobs(), c.stlb);
    fn("dram", dramKnobs(), c.dram);
}

} // namespace

SystemConfig
SystemConfig::fromConfig(const Config &cfg)
{
    unsigned cores = cfg.getUnsigned32("cores", 1);
    if (cores == 0) {
        throw ConfigError("cores = 0: a system needs at least one core "
                          "(multi-core mixes supply one workload per core)");
    }
    SystemConfig c = cascadeLake(cores);

    if (cfg.has("scheme"))
        c.scheme = SchemeConfig::fromName(cfg.getString("scheme"));
    c.scheme = SchemeConfig::fromConfig(cfg.sub("scheme"), c.scheme);

    c.warmup_instrs = cfg.getUnsigned("warmup_instrs", c.warmup_instrs);
    c.sim_instrs = cfg.getUnsigned("sim_instrs", c.sim_instrs);
    c.max_cycles = cfg.getUnsigned("max_cycles", c.max_cycles);
    c.idle_skip = cfg.getBool("idle_skip", c.idle_skip);
    c.dram_gbps_per_core
        = cfg.getDouble("dram_gbps_per_core", c.dram_gbps_per_core);
    c.core_ghz = cfg.getDouble("core_ghz", c.core_ghz);

    c.l1_prefetcher = normalizeComponentName(
        cfg.getString("l1d.prefetcher", c.l1_prefetcher));
    c.l2_prefetcher = normalizeComponentName(
        cfg.getString("l2.prefetcher", c.l2_prefetcher));
    c.l1_pf_params.merge(cfg.sub("l1d.prefetcher"));
    c.l2_pf_params.merge(cfg.sub("l2.prefetcher"));
    for (const std::string &pf : {c.l1_prefetcher, c.l2_prefetcher}) {
        if (!pf.empty() && !prefetcherRegistry().contains(pf)) {
            throw ConfigError("unknown prefetcher '" + pf
                              + "'; valid names: "
                              + prefetcherRegistry().namesLine());
        }
    }
    // Prefetcher tuning subtrees: every forwarded key must be a knob the
    // deployed prefetcher declared; a subtree under an empty slot tunes
    // nothing and is rejected as the typo it almost certainly is.
    std::vector<std::string> knob_errors;
    auto check_pf_subtree = [&knob_errors](const std::string &slot,
                                           const std::string &name,
                                           const Config &params) {
        if (name.empty() && !params.empty()) {
            for (const std::string &k : params.keys()) {
                knob_errors.push_back(slot + "." + k + " is set but "
                                      + slot + " = none deploys no "
                                        "prefetcher to consume it");
            }
            return;
        }
        std::vector<std::string> errs = subtreeKnobErrors(
            prefetcherRegistry(), name, params, slot + ".");
        knob_errors.insert(knob_errors.end(), errs.begin(), errs.end());
    };
    check_pf_subtree("l1d.prefetcher", c.l1_prefetcher, c.l1_pf_params);
    check_pf_subtree("l2.prefetcher", c.l2_prefetcher, c.l2_pf_params);
    if (!knob_errors.empty())
        throwConfigErrors(knob_errors);

    // Machine knobs are read key by key, never through sub(): sub()
    // would mark a misspelled "l1d.sett" consumed along with the
    // l1d.prefetcher subtree.
    forEachMachineBlock(c, [&cfg](const std::string &prefix,
                                  const auto &schema, auto &params) {
        schema.parse(cfg, params, prefix + ".");
    });

    // Reject unknown keys, pointing at what exists. Detection is
    // consumed-key tracking — everything understood was read by a getter
    // or forwarded by a sub() above — so a key can never be silently
    // ignored just because some dump happens to mention it; the known-key
    // set (what toConfig emits, plus the "scheme" preset shorthand) only
    // shapes the suggestions. All offenders are collected into one error.
    std::vector<std::string> stray = cfg.unconsumedKeys();
    if (!stray.empty()) {
        Config known = c.toConfig();
        known.set("scheme", "");
        std::vector<std::string> errors;
        for (const std::string &key : stray) {
            std::string segment = key.substr(0, key.find('.'));
            std::vector<std::string> near;
            for (const std::string &k : known.keys()) {
                if (k.compare(0, segment.size() + 1, segment + ".") == 0
                    || k == segment) {
                    near.push_back(k);
                }
            }
            std::string valid = near.empty()
                ? "valid keys: " + joinNames(known.keys())
                : "valid '" + segment + "' keys: " + joinNames(near);
            errors.push_back("unknown config key '" + key + "'; " + valid);
        }
        throwConfigErrors(errors);
    }
    return c;
}

Config
SystemConfig::toConfig() const
{
    Config c;
    c.set("cores", num_cores);
    c.set("warmup_instrs", warmup_instrs);
    c.set("sim_instrs", sim_instrs);
    c.set("max_cycles", max_cycles);
    c.set("idle_skip", idle_skip);
    c.set("dram_gbps_per_core", dram_gbps_per_core);
    c.set("core_ghz", core_ghz);

    c.set("l1d.prefetcher", renderComponentName(l1_prefetcher));
    c.set("l2.prefetcher", renderComponentName(l2_prefetcher));
    for (const std::string &k : l1_pf_params.keys())
        c.set("l1d.prefetcher." + k, l1_pf_params.getString(k));
    for (const std::string &k : l2_pf_params.keys())
        c.set("l2.prefetcher." + k, l2_pf_params.getString(k));

    Config sch = scheme.toConfig();
    for (const std::string &k : sch.keys())
        c.set("scheme." + k, sch.getString(k));

    forEachMachineBlock(*this, [&c](const std::string &prefix,
                                    const auto &schema,
                                    const auto &params) {
        schema.render(params, c, prefix + ".");
    });
    return c;
}

Config
SystemConfig::l1PrefetcherBuildConfig() const
{
    return l1_prefetcher.empty() ? Config{} : l1_pf_params;
}

Config
SystemConfig::l2PrefetcherBuildConfig() const
{
    Config pc;
    if (l2_prefetcher.empty())
        return pc;
    // The PPF-companion tuning (§V-E): with an L2 filter deployed the L2
    // prefetcher runs aggressive and lets the filter prune. Injected only
    // where declared; a user-set subtree key still wins.
    if (prefetcherRegistry().knobs(l2_prefetcher).contains("aggressive"))
        pc.set("aggressive", scheme.hasL2Filter());
    pc.merge(l2_pf_params);
    return pc;
}

Config
SystemConfig::effectiveConfig() const
{
    Config c = toConfig();
    auto expand = [&c](const std::string &prefix, const KnobSchema &ks,
                       const Config &built) {
        Config eff = ks.defaults();
        eff.merge(built);
        eff.erase("name");   // per-cpu stat prefix, injected at build time
        for (const std::string &k : eff.keys())
            c.set(prefix + k, eff.getString(k));
    };
    if (scheme.hasOffchip()) {
        expand("scheme.offchip.", offchipRegistry().knobs(scheme.offchip),
               scheme.offchipBuildConfig());
    }
    if (scheme.hasL1Filter()) {
        expand("scheme.l1_filter.",
               filterRegistry().knobs(scheme.l1_filter),
               scheme.l1FilterBuildConfig());
    }
    if (scheme.hasL2Filter()) {
        expand("scheme.l2_filter.",
               filterRegistry().knobs(scheme.l2_filter),
               scheme.l2FilterBuildConfig());
    }
    if (!l1_prefetcher.empty()) {
        expand("l1d.prefetcher.", prefetcherRegistry().knobs(l1_prefetcher),
               l1PrefetcherBuildConfig());
    }
    if (!l2_prefetcher.empty()) {
        expand("l2.prefetcher.", prefetcherRegistry().knobs(l2_prefetcher),
               l2PrefetcherBuildConfig());
    }
    return c;
}

Config
SystemConfig::dumpConfig() const
{
    Config c = effectiveConfig();
    if (!l2_pf_params.has("aggressive"))
        c.erase("l2.prefetcher.aggressive");
    return c;
}

void
SystemConfig::overlay(Config &lower, const Config &upper)
{
    // A scheme preset named above replaces the whole scheme below.
    if (upper.has("scheme")) {
        lower.erase("scheme");
        lower.eraseSub("scheme");
    }
    for (const char *slot :
         {"scheme.offchip", "scheme.l1_filter", "scheme.l2_filter",
          "l1d.prefetcher", "l2.prefetcher"}) {
        if (lower.has(slot) && upper.has(slot)
            && normalizeComponentName(lower.getString(slot))
                   != normalizeComponentName(upper.getString(slot))) {
            lower.eraseSub(slot);
        }
    }
    lower.merge(upper);
}

std::string
SystemConfig::machineKnobReference()
{
    const SystemConfig table3 = cascadeLake(1);
    std::string out;
    forEachMachineBlock(table3, [&out](const std::string &prefix,
                                       const auto &schema,
                                       const auto &params) {
        Config values;
        schema.render(params, values);
        out += (out.empty() ? "machine " : "\nmachine ") + prefix + "\n"
            + schema.reference(values);
    });
    return out;
}

unsigned
SystemConfig::burstCycles() const
{
    double total_gbps = dram_gbps_per_core * num_cores;
    double ns_per_line = 64.0 / total_gbps;
    auto cycles = static_cast<unsigned>(std::lround(ns_per_line * core_ghz));
    return cycles == 0 ? 1 : cycles;
}

std::string
SystemConfig::description() const
{
    char buf[512];
    std::string out;
    out += "System configuration (Table III)\n";
    std::snprintf(buf, sizeof(buf),
                  "  CPU        : %u core(s), %.1f GHz, 4-wide OoO, "
                  "%u-entry ROB, 6-cycle mispredict refill\n",
                  num_cores, core_ghz, core.rob_size);
    out += buf;
    out += "  Branch pred: hashed-perceptron\n";
    std::snprintf(buf, sizeof(buf),
                  "  L1 DTLB    : %u-entry, %u-way, %ucc\n", dtlb.entries,
                  dtlb.ways, dtlb.latency);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  L2 TLB     : %u-entry, %u-way, %ucc\n", stlb.entries,
                  stlb.ways, stlb.latency);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  L1I        : %u KB, %u-way, %ucc, %u MSHRs\n",
                  l1i.sets * l1i.ways * 64 / 1024, l1i.ways, l1i.latency,
                  l1i.mshrs);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  L1D        : %u KB, %u-way, %ucc, %u MSHRs, "
                  "prefetcher=%s\n",
                  l1d.sets * l1d.ways * 64 / 1024, l1d.ways, l1d.latency,
                  l1d.mshrs, renderComponentName(l1_prefetcher).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  L2C        : %u KB, %u-way, %ucc, %u MSHRs, "
                  "prefetcher=%s\n",
                  l2.sets * l2.ways * 64 / 1024, l2.ways, l2.latency,
                  l2.mshrs, renderComponentName(l2_prefetcher).c_str());
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  LLC        : %.3f MB/core, %u-way, %ucc, %u MSHRs\n",
                  llc.sets * llc.ways * 64.0 / (1024.0 * 1024.0), llc.ways,
                  llc.latency, llc.mshrs);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  DRAM       : %.1f GB/s per core, tRP=tRCD=tCAS=%u, "
                  "%u banks, burst=%u cycles\n",
                  dram_gbps_per_core, dram.t_rp, dram.banks, burstCycles());
    out += buf;
    std::snprintf(buf, sizeof(buf), "  Scheme     : %s\n",
                  scheme.name.c_str());
    out += buf;
    return out;
}

} // namespace tlpsim
