/**
 * @file
 * System configuration: the Table III baseline (Intel Cascade Lake-like)
 * plus the "scheme" axis — which combination of off-chip prediction and
 * prefetch filtering is deployed.
 *
 * Components are named by registry keys (prefetch/factory.hh), so a
 * design point is pure data: SystemConfig round-trips through the
 * declarative Config tree (fromConfig/toConfig), and every evaluated
 * design point in the paper (baseline, PPF, Hermes, Hermes+PPF, TLP, the
 * Fig. 15 ablations, Fig. 17's storage-boosted variants) is a named
 * SchemeConfig preset (SchemeConfig::fromName) shipped as a config file
 * under configs/. A component is tuned only through its own declared
 * knobs (scheme.offchip.tau_high, l1d.prefetcher.table_scale_shift,
 * ...), and its KnobSchema default is the only default. The machine's
 * core, cache, TLB and DRAM Params are tuned the same way: each block
 * binds its fields in a ParamSchema (common/knobs.hh), and
 * fromConfig/toConfig fill and dump every "<block>.<knob>" key (core.*,
 * l1i|l1d|l2|llc.*, dtlb|stlb.*, dram.*) in one loop over the blocks.
 */

#ifndef TLPSIM_SIM_SYSTEM_CONFIG_HH
#define TLPSIM_SIM_SYSTEM_CONFIG_HH

#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "offchip/offchip_predictor.hh"
#include "offchip/slp.hh"
#include "prefetch/factory.hh"
#include "tlb/tlb.hh"

namespace tlpsim
{

/** One evaluated design point (off-chip prediction × prefetch filtering).
 *  Component slots hold registry names; empty means "not deployed". */
struct SchemeConfig
{
    std::string name = "baseline";

    /** Off-chip predictor registry name ("flp", "hermes"; "" = none). */
    std::string offchip;
    /** L1D prefetch-filter registry name ("slp"; "" = none). */
    std::string l1_filter;
    /** L2 prefetch-filter registry name ("ppf"; "" = none). */
    std::string l2_filter;

    /**
     * Per-component subtrees, forwarded verbatim to the registry builders:
     * "scheme.offchip.tau_high = 4" tunes the off-chip predictor without
     * SchemeConfig having heard of the key — the point of the registry:
     * new backends bring new knobs without core edits. A knob left unset
     * takes its component's declared KnobSchema default. Relative keys:
     * "offchip.*", "l1_filter.*", "l2_filter.*".
     */
    Config offchip_params;
    Config l1_filter_params;
    Config l2_filter_params;

    bool hasOffchip() const { return !offchip.empty(); }
    bool hasL1Filter() const { return !l1_filter.empty(); }
    bool hasL2Filter() const { return !l2_filter.empty(); }

    bool operator==(const SchemeConfig &) const = default;

    // --- named presets ---------------------------------------------------
    /** Look up a paper scheme by name; throws ConfigError listing names().
     */
    static SchemeConfig fromName(const std::string &name);

    /** Sorted names of every shipped scheme preset. */
    static std::vector<std::string> names();

    /** The four comparison points of Figs. 10-14. */
    static std::vector<SchemeConfig> paperSchemes();

    /** The six Fig. 15 ablation points. */
    static std::vector<SchemeConfig> ablationSchemes();

    // --- declarative config ---------------------------------------------
    /**
     * Apply relative keys ("offchip", "offchip.tau_high", ...) over
     * @p defaults. A slot @p cfg fills with a different component starts
     * from an empty subtree: the defaults' knobs (a preset's) tuned the
     * component being replaced. Validates registry names and — for every
     * deployed component that declared a KnobSchema — the forwarded
     * subtree: unknown keys under "offchip.", "l1_filter.", "l2_filter."
     * and wrongly-typed values are collected across all three slots and
     * thrown as one ConfigError naming each offending key and the
     * component's declared knobs. Unknown relative keys ("bogus") are
     * rejected via consumed-key tracking.
     */
    static SchemeConfig fromConfig(const Config &cfg,
                                   const SchemeConfig &defaults);
    static SchemeConfig fromConfig(const Config &cfg);

    /** Relative-key rendering; fromConfig(toConfig()) == *this. */
    Config toConfig() const;

    // --- component builder configs --------------------------------------
    /**
     * The exact Config the registry builder of each deployed slot
     * receives (its forwarded subtree; empty for an empty slot), minus
     * the per-cpu stat "name" the Simulator injects. Shared by the
     * Simulator (construction) and SystemConfig::effectiveConfig
     * (fingerprinting), so the fingerprint can never disagree with what
     * is built.
     */
    Config offchipBuildConfig() const;
    Config l1FilterBuildConfig() const;
    Config l2FilterBuildConfig() const;
};

/** Full system configuration. */
struct SystemConfig
{
    unsigned num_cores = 1;
    InstrCount warmup_instrs = 200'000;
    InstrCount sim_instrs = 1'000'000;
    /** Hard cycle cap for the whole run; 0 = automatic hang bound
     *  (~400 cycles per target instruction). A run that hits the cap
     *  reports hit_cycle_cap and per-core *measured* instruction counts
     *  (SimResult::instrs) rather than the nominal sim_instrs. */
    Cycle max_cycles = 0;
    /** Event-driven idle-cycle elision in Simulator::run(): when no
     *  component can change state before the next scheduled event, the
     *  clock jumps straight to it. Bit-identical results either way
     *  (skipped cycles' stall counters are replayed); the knob exists so
     *  tests can diff skip-on vs skip-off. */
    bool idle_skip = true;
    /** Per-core DRAM bandwidth (Table III: 12.8 single, 3.2 multi). */
    double dram_gbps_per_core = 12.8;
    double core_ghz = 3.8;

    /** L1D prefetcher registry name ("" = none). */
    std::string l1_prefetcher = "ipcp";
    /** L2 prefetcher registry name ("" = none). */
    std::string l2_prefetcher = "spp";
    /** Arbitrary prefetcher subtrees ("l1d.prefetcher.*" /
     *  "l2.prefetcher.*"), forwarded to the registry builders. */
    Config l1_pf_params;
    Config l2_pf_params;
    SchemeConfig scheme;

    Core::Params core;
    Cache::Params l1i;
    Cache::Params l1d;
    Cache::Params l2;
    Cache::Params llc;    ///< per-core share; Simulator scales sets
    Tlb::Params dtlb;
    Tlb::Params stlb;
    DramController::Params dram;

    /** Table III defaults. */
    static SystemConfig cascadeLake(unsigned cores = 1);

    /**
     * Build from a declarative Config: defaults are cascadeLake("cores"),
     * the "scheme" key selects a SchemeConfig preset by name, and every
     * other key overrides one field. Unknown keys and invalid values
     * throw ConfigError naming the key and the valid choices.
     */
    static SystemConfig fromConfig(const Config &cfg);

    /** Full dump of every tunable field; fromConfig(toConfig()) == *this
     *  and serialize(toConfig()) is a complete, reparseable config file. */
    Config toConfig() const;

    /**
     * toConfig() with every deployed component's subtree expanded to its
     * full effective knob set: declared schema defaults overlaid with
     * the builder config (the per-cpu stat "name" excluded). This is the
     * Runner fingerprint (experiment::configKey): it captures effective —
     * not just user-set — knob values, so a changed component default can
     * never silently alias two different design points. Re-parsing an
     * effectiveConfig() dump reproduces the same design point (expansion
     * is idempotent).
     */
    Config effectiveConfig() const;

    /**
     * The --print-config dump: effectiveConfig() minus the L2
     * prefetcher's "aggressive" flag unless l2_pf_params sets it. The
     * flag is derived from scheme.l2_filter at build time; frozen into a
     * dump it would pin this scheme's tuning on every scheme the dump is
     * later reused under (--scheme, --sweep).
     */
    Config dumpConfig() const;

    /**
     * Overlay config layer @p upper on @p lower (files < --set; @p upper
     * wins per key). Where both layers name a component for a slot
     * ("scheme.offchip", "l1d.prefetcher", ...) and the names differ,
     * @p lower's knobs for that slot are dropped first: they tuned the
     * component being replaced. Likewise an @p upper that names a
     * scheme preset ("scheme = hermes") drops @p lower's "scheme" and
     * every "scheme.*" key; @p upper's own scheme.* keys still apply
     * over the preset.
     */
    static void overlay(Config &lower, const Config &upper);

    /** Builder configs of the prefetcher slots (cf. the SchemeConfig
     *  helpers): the forwarded subtree, plus the L2 prefetcher's
     *  "aggressive" flag derived from the scheme. */
    Config l1PrefetcherBuildConfig() const;
    Config l2PrefetcherBuildConfig() const;

    /** The machine half of `tlpsim --knobs`: one block per core, cache,
     *  TLB and DRAM prefix, each knob at its Table III value. */
    static std::string machineKnobReference();

    /** DRAM burst occupancy for the configured bandwidth. */
    unsigned burstCycles() const;

    /** Human-readable Table III rendering (bench/table3_config). */
    std::string description() const;
};

} // namespace tlpsim

#endif // TLPSIM_SIM_SYSTEM_CONFIG_HH
