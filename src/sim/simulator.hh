/**
 * @file
 * Simulator: composes cores, caches, TLBs, predictors, and DRAM into a
 * system per SystemConfig, runs warmup + measurement, and returns a
 * SimResult snapshot. Owns every component; nothing escapes its lifetime.
 */

#ifndef TLPSIM_SIM_SIMULATOR_HH
#define TLPSIM_SIM_SIMULATOR_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "core/core.hh"
#include "sim/hotloop_profile.hh"
#include "mem/dram.hh"
#include "offchip/offchip_predictor.hh"
#include "sim/system_config.hh"
#include "tlb/page_table.hh"
#include "tlb/tlb.hh"
#include "trace/trace.hh"

namespace tlpsim
{

/**
 * Everything an experiment needs from one finished simulation.
 *
 * Measurement semantics are per core (ChampSim-style): each core's
 * window opens the cycle *it* retires warmup_instrs and closes when it
 * retires sim_instrs more, independent of co-runner progress — so a
 * fast core's window spans its real retire time even when a slow
 * co-runner is still warming up. Per-core stats ("cpuN.*") cover core
 * N's own window; shared-structure stats ("llc.*", "dram.*",
 * "oracle.*") cover one global window from the first window opening to
 * the last one closing.
 */
struct SimResult
{
    std::string scheme;
    unsigned num_cores = 0;
    InstrCount sim_instrs = 0;              ///< per core, nominal target
    /** Per core: instructions measured inside the core's own window.
     *  Equal to sim_instrs for cores that closed their window; smaller
     *  for cores cut off by the cycle cap, and zero for a core the cap
     *  caught still warming up. Every per-instruction metric below
     *  divides by these, not the nominal target, so a capped run
     *  reports its true rates instead of silently deflated ones. */
    std::vector<InstrCount> instrs;
    std::vector<double> ipc;                ///< per core, own window
    /** Per core: cycle the core's measurement window opened (it retired
     *  its warmup_instrs-th instruction). 0 means warmup never finished
     *  — only possible when hit_cycle_cap is set. */
    std::vector<Cycle> warmup_end_cycle;
    /** Per core: length of the core's own measurement window, from its
     *  warmup end to the cycle it retired sim_instrs more (or to the
     *  cycle cap). */
    std::vector<Cycle> window_cycles;
    bool hit_cycle_cap = false;
    /** Windowed counters — see the struct comment for which window each
     *  name family covers. */
    std::map<std::string, std::uint64_t> stats;

    /** Measured instructions summed over the per-core windows. Falls
     *  back to the nominal sim_instrs * num_cores only when `instrs` is
     *  empty (hand-built SimResults in tests); Simulator::run always
     *  populates `instrs`, including with zeros for cores the cycle cap
     *  caught mid-warmup, so capped and heterogeneous runs never
     *  misreport per-instruction totals via the nominal quota. */
    InstrCount totalInstrs() const;

    std::uint64_t
    stat(const std::string &name) const
    {
        auto it = stats.find(name);
        return it == stats.end() ? 0 : it->second;
    }

    /** Sum a per-core stat "cpuN.<suffix>" over all cores. */
    std::uint64_t sumOverCores(const std::string &suffix) const;

    /** Demand (load+RFO) MPKI of a cache level ("l1d", "l2c", "llc"). */
    double mpki(const std::string &cache) const;

    /** Total DRAM transactions (the Figs. 2/3/11/14/16 metric). */
    std::uint64_t dramTransactions() const
    {
        return stat("dram.transactions");
    }

    /** L1D prefetch accuracy: useful / (useful + useless), Fig. 12. */
    double l1dPrefetchAccuracy() const;

    /** Prefetches per kilo-instruction helpers for Figs. 5/6. */
    double ppki(const std::string &counter_suffix) const;

    double ipcTotal() const;

    /** Largest per-core IPC. Physically bounded by the retire width;
     *  the pre-window-semantics degenerate-window bug pushed this to
     *  ~sim_instrs. Simulator.FastSlowMixWindowsArePhysicallyPlausible
     *  guards the bound. */
    double ipcMax() const;
};

class Simulator
{
  public:
    /**
     * @param cfg      full system configuration
     * @param sources  one trace stream per core (each repeats cyclically
     *                 if shorter than the simulation length). The
     *                 simulator shares ownership: a caller may hand over
     *                 freshly built sources and forget them.
     */
    Simulator(const SystemConfig &cfg,
              std::vector<std::shared_ptr<TraceSource>> sources);
    ~Simulator();

    /** Warmup + measure; may only be called once. */
    SimResult run();

    /** Tick every unit once (exposed for tests). */
    void step();

    /**
     * Earliest cycle at which any component could change state or a
     * stat, given the post-step() state (conservative: never later than
     * the true next event). Only meaningful after at least one step().
     */
    Cycle nextEventCycle();

    /**
     * Event-driven idle skip: if nextEventCycle() is beyond cycle_, jump
     * the clock straight there (clamped to @p limit) and replay the
     * skipped cycles' deterministic stall counters on every core. A
     * skipping run is bit-identical — same stats, same figure tables —
     * to a cycle-by-cycle run; run() invokes this after every step when
     * the idle_skip knob is on. Returns the number of cycles skipped.
     */
    Cycle skipIdle(Cycle limit);

    /** Total cycles elided by skipIdle() (not a stat on purpose: the
     *  stat maps of skip-on and skip-off runs must stay identical). */
    std::uint64_t idleSkippedCycles() const { return idle_skipped_; }

    /** Attach a per-subsystem hot-loop profile (nullptr to detach).
     *  While attached, step()/skipIdle() bracket each component family
     *  with timestamp reads; simulation results are unaffected. */
    void setProfile(HotloopProfile *p) { profile_ = p; }

    Cycle cycle() const { return cycle_; }
    StatGroup &stats() { return stats_; }
    Core &core(unsigned i) { return *cores_[i]; }
    Cache &l1d(unsigned i) { return *l1d_[i]; }
    Cache &l2(unsigned i) { return *l2_[i]; }
    Cache &llc() { return *llc_; }
    DramController &dram() { return *dram_; }

    /** Combined TLP storage budget (Table II). */
    static StorageBudget tlpStorageBudget();

  private:
    /** The Fig. 4 oracle: counts where spec-targeted blocks reside.
     *  Implements SpecIssueObserver so the per-issue notification is one
     *  virtual call (no std::function on the hot path). */
    struct OracleProbe;

    /** Adapts the page table to the Cache::Translator interface: one
     *  shared instance translates every core's prefetch candidates (the
     *  last std::function on the hot path, now a direct virtual call). */
    struct PrefetchTranslator;

    void build();

    /** step()'s body, one tick sequence for both paths: kProfiled
     *  times each subsystem into the attached profile. */
    template <bool kProfiled> void tick();

    SystemConfig cfg_;
    std::vector<std::shared_ptr<TraceSource>> sources_;
    StatGroup stats_;
    Cycle cycle_ = 0;
    std::uint64_t idle_skipped_ = 0;
    HotloopProfile *profile_ = nullptr;

    PageTable page_table_;
    std::unique_ptr<OracleProbe> oracle_;
    std::unique_ptr<PrefetchTranslator> translator_;
    std::unique_ptr<DramController> dram_;
    std::unique_ptr<Cache> llc_;
    std::vector<std::unique_ptr<Cache>> l2_;
    std::vector<std::unique_ptr<Cache>> l1d_;
    std::vector<std::unique_ptr<Cache>> l1i_;
    std::vector<std::unique_ptr<Tlb>> dtlb_;
    std::vector<std::unique_ptr<Tlb>> stlb_;
    std::vector<std::unique_ptr<TranslationStack>> tlbs_;
    std::vector<std::unique_ptr<OffChipPredictor>> offchip_;
    std::vector<std::unique_ptr<PrefetchFilter>> l1_filter_;
    std::vector<std::unique_ptr<PrefetchFilter>> l2_filter_;
    std::vector<std::unique_ptr<Prefetcher>> l1_pf_;
    std::vector<std::unique_ptr<Prefetcher>> l2_pf_;
    std::vector<std::unique_ptr<TraceReader>> readers_;
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace tlpsim

#endif // TLPSIM_SIM_SIMULATOR_HH
