#include "sim/simulator.hh"

#include <algorithm>

#include "common/watchdog.hh"
#include "offchip/slp.hh"

namespace tlpsim
{

/** Counts which level already holds the block a speculative DRAM read
 *  targets (Fig. 4). One instance serves all cores via pkt.core. */
struct Simulator::OracleProbe : SpecIssueObserver
{
    OracleProbe(Simulator &sim, StatGroup &stats)
        : sim_(sim),
          in_l1d_(stats.counter("oracle.spec_block_in_l1d")),
          in_l2c_(stats.counter("oracle.spec_block_in_l2c")),
          in_llc_(stats.counter("oracle.spec_block_in_llc")),
          in_dram_(stats.counter("oracle.spec_block_in_dram"))
    {
    }

    void
    onSpecIssued(const Packet &pkt) override
    {
        if (sim_.l1d_[pkt.core]->probe(pkt.paddr))
            in_l1d_->add();
        else if (sim_.l2_[pkt.core]->probe(pkt.paddr))
            in_l2c_->add();
        else if (sim_.llc_->probe(pkt.paddr))
            in_llc_->add();
        else
            in_dram_->add();
    }

  private:
    Simulator &sim_;
    Counter *in_l1d_;
    Counter *in_l2c_;
    Counter *in_llc_;
    Counter *in_dram_;
};

/** One page-table adapter serves all cores; the core id is the address
 *  space id (asid), exactly as the per-core lambdas used to capture it. */
struct Simulator::PrefetchTranslator : Translator
{
    explicit PrefetchTranslator(PageTable &pt) : pt_(pt) {}

    Addr
    translate(std::uint8_t core, Addr vaddr) override
    {
        return pt_.translate(core, vaddr);
    }

  private:
    PageTable &pt_;
};

InstrCount
SimResult::totalInstrs() const
{
    // The nominal quota is only a fallback for hand-built results with
    // no per-core accounting at all. Simulator::run always fills
    // `instrs` with what each window measured (sim_instrs for closed
    // windows, the truncated count for capped ones, 0 for cores caught
    // mid-warmup), and summing anything else here would misreport every
    // per-instruction total of capped or heterogeneous runs.
    if (instrs.empty())
        return sim_instrs * num_cores;
    InstrCount total = 0;
    for (InstrCount n : instrs)
        total += n;
    return total;
}

std::uint64_t
SimResult::sumOverCores(const std::string &suffix) const
{
    std::uint64_t total = 0;
    for (unsigned c = 0; c < num_cores; ++c)
        total += stat("cpu" + std::to_string(c) + "." + suffix);
    return total;
}

double
SimResult::mpki(const std::string &cache) const
{
    // The LLC is shared (one stat group); per-core caches sum "cpuN." stats.
    std::uint64_t misses = cache == "llc"
        ? stat("llc.load_miss") + stat("llc.rfo_miss")
        : sumOverCores(cache + ".load_miss")
            + sumOverCores(cache + ".rfo_miss");
    double kilo_instr = static_cast<double>(totalInstrs()) / 1000.0;
    return kilo_instr == 0.0 ? 0.0 : static_cast<double>(misses) / kilo_instr;
}

double
SimResult::l1dPrefetchAccuracy() const
{
    auto useful = static_cast<double>(sumOverCores("l1d.pf_useful"));
    auto useless = static_cast<double>(sumOverCores("l1d.pf_useless"));
    return useful + useless == 0.0 ? 0.0 : useful / (useful + useless);
}

double
SimResult::ppki(const std::string &counter_suffix) const
{
    double kilo_instr = static_cast<double>(totalInstrs()) / 1000.0;
    return kilo_instr == 0.0
        ? 0.0
        : static_cast<double>(sumOverCores(counter_suffix)) / kilo_instr;
}

double
SimResult::ipcTotal() const
{
    double total = 0.0;
    for (double v : ipc)
        total += v;
    return total;
}

double
SimResult::ipcMax() const
{
    double max = 0.0;
    for (double v : ipc)
        max = std::max(max, v);
    return max;
}

Simulator::Simulator(const SystemConfig &cfg,
                     std::vector<std::shared_ptr<TraceSource>> sources)
    : cfg_(cfg), sources_(std::move(sources)), stats_("sim")
{
    // A config error, not an assert: the shared LLC and DRAM are sized
    // from num_cores, so silently reusing or dropping traces would skew
    // every multi-core metric — and asserts vanish in Release builds.
    if (sources_.size() != cfg_.num_cores) {
        throw ConfigError(
            "cores = " + std::to_string(cfg_.num_cores) + " but "
            + std::to_string(sources_.size())
            + " trace(s) supplied: a multi-core mix needs exactly one "
              "workload per core (adjust 'cores' or the mix)");
    }
    for (std::size_t c = 0; c < sources_.size(); ++c) {
        if (sources_[c] == nullptr) {
            throw ConfigError("core " + std::to_string(c)
                              + " has no trace stream");
        }
    }
    build();
}

Simulator::~Simulator() = default;

void
Simulator::build()
{
    const unsigned n = cfg_.num_cores;

    oracle_ = std::make_unique<OracleProbe>(*this, stats_);
    translator_ = std::make_unique<PrefetchTranslator>(page_table_);

    DramController::Params dp = cfg_.dram;
    dp.burst_cycles = cfg_.burstCycles();
    dp.num_cores = n;
    dram_ = std::make_unique<DramController>(dp, &stats_);

    Cache::Params lp = cfg_.llc;
    lp.name = "llc";
    lp.sets *= n;                  // 1.375 MB and 64 MSHRs per core
    lp.mshrs *= n;
    lp.rq_size *= n;
    lp.wq_size *= n;
    lp.pq_size *= n;
    llc_ = std::make_unique<Cache>(lp, dram_.get(), &stats_);

    for (unsigned c = 0; c < n; ++c) {
        const std::string cpu = "cpu" + std::to_string(c);
        const SchemeConfig &sch = cfg_.scheme;

        // Components are built through the string-keyed registries: the
        // scheme names what is deployed, and the buildConfig helpers
        // (shared with SystemConfig::effectiveConfig, so the fingerprint
        // matches construction) hand each builder its forwarded subtree
        // (scheme.offchip.* et al.) — so new backends drop in via
        // registration plus config alone. build() validates every key
        // against the component's declared knob schema. Only the per-cpu
        // stat name is injected here, and a user-set "name" subtree key
        // still wins.
        if (sch.hasOffchip()) {
            Config oc = sch.offchipBuildConfig();
            if (!oc.has("name"))
                oc.set("name", cpu + ".flp");
            offchip_.push_back(
                offchipRegistry().build(sch.offchip, oc, &stats_));
        } else {
            offchip_.push_back(nullptr);
        }

        if (sch.hasL1Filter()) {
            Config fc = sch.l1FilterBuildConfig();
            if (!fc.has("name"))
                fc.set("name", cpu + "." + sch.l1_filter);
            l1_filter_.push_back(
                filterRegistry().build(sch.l1_filter, fc, &stats_));
        } else {
            l1_filter_.push_back(nullptr);
        }

        if (sch.hasL2Filter()) {
            Config fc = sch.l2FilterBuildConfig();
            if (!fc.has("name"))
                fc.set("name", cpu + "." + sch.l2_filter);
            l2_filter_.push_back(
                filterRegistry().build(sch.l2_filter, fc, &stats_));
        } else {
            l2_filter_.push_back(nullptr);
        }

        if (!cfg_.l1_prefetcher.empty()) {
            l1_pf_.push_back(prefetcherRegistry().build(
                cfg_.l1_prefetcher, cfg_.l1PrefetcherBuildConfig()));
        } else {
            l1_pf_.push_back(nullptr);
        }

        if (!cfg_.l2_prefetcher.empty()) {
            l2_pf_.push_back(prefetcherRegistry().build(
                cfg_.l2_prefetcher, cfg_.l2PrefetcherBuildConfig()));
        } else {
            l2_pf_.push_back(nullptr);
        }

        Cache::Params p2 = cfg_.l2;
        p2.name = cpu + ".l2c";
        p2.prefetcher = l2_pf_.back().get();
        p2.filter = l2_filter_.back().get();
        l2_.push_back(std::make_unique<Cache>(p2, llc_.get(), &stats_));

        Cache::Params p1 = cfg_.l1d;
        p1.name = cpu + ".l1d";
        p1.prefetcher = l1_pf_.back().get();
        p1.filter = l1_filter_.back().get();
        p1.translator = translator_.get();
        // The delayed speculative path exists for FLP-style policies.
        if (const OffChipPredictor *op = offchip_.back().get();
            op != nullptr
            && (op->params().policy == OffchipPolicy::Selective
                || op->params().policy == OffchipPolicy::AlwaysDelay)) {
            p1.spec_dram = dram_.get();
        }
        p1.spec_latency = cfg_.core.spec_latency;
        p1.spec_observer = oracle_.get();
        l1d_.push_back(std::make_unique<Cache>(p1, l2_.back().get(),
                                               &stats_));

        Cache::Params pi = cfg_.l1i;
        pi.name = cpu + ".l1i";
        l1i_.push_back(std::make_unique<Cache>(pi, l2_.back().get(),
                                               &stats_));

        Tlb::Params dt = cfg_.dtlb;
        dt.name = cpu + ".dtlb";
        dtlb_.push_back(std::make_unique<Tlb>(dt, &stats_));
        Tlb::Params st = cfg_.stlb;
        st.name = cpu + ".stlb";
        stlb_.push_back(std::make_unique<Tlb>(st, &stats_));
        tlbs_.push_back(std::make_unique<TranslationStack>(
            dtlb_.back().get(), stlb_.back().get()));

        readers_.push_back(std::make_unique<TraceReader>(*sources_[c]));

        Core::Params cp = cfg_.core;
        cp.id = c;
        cp.name = cpu;

        Core::Ports ports;
        ports.trace = readers_.back().get();
        ports.l1i = l1i_.back().get();
        ports.l1d = l1d_.back().get();
        ports.walk_target = l2_.back().get();
        ports.tlbs = tlbs_.back().get();
        ports.page_table = &page_table_;
        ports.dram = dram_.get();
        ports.offchip = offchip_.back().get();
        ports.spec_observer = oracle_.get();
        cores_.push_back(std::make_unique<Core>(cp, ports, &stats_));

        // The levels that send to each backend, re-armed when it frees
        // room after refusing one of them. The core sleeps on a store
        // its L1D refused, and retries a refused load or fetch every
        // cycle.
        l1d_.back()->addSender(cores_.back().get());
        l2_.back()->addSender(l1d_.back().get());
        l2_.back()->addSender(l1i_.back().get());
        llc_->addSender(l2_.back().get());
    }
    dram_->addSender(llc_.get());
}

void
Simulator::step()
{
    if (profile_ != nullptr)
        tick<true>();
    else
        tick<false>();
}

template <bool kProfiled>
void
Simulator::tick()
{
    // lap(s) charges the host time since the previous lap to subsystem
    // s of the attached profile; unprofiled, it compiles away.
    [[maybe_unused]] std::uint64_t t0 = kProfiled ? profileTimestamp() : 0;
    auto lap = [&]([[maybe_unused]] HotloopProfile::Subsystem s) {
        if constexpr (kProfiled) {
            const std::uint64_t t1 = profileTimestamp();
            profile_->ticks[s] += t1 - t0;
            t0 = t1;
        }
    };
    for (auto &core : cores_)
        core->tickIfDue(cycle_);
    lap(HotloopProfile::kCore);
    for (auto &c : l1i_)
        c->tickIfDue(cycle_);
    lap(HotloopProfile::kL1i);
    for (auto &c : l1d_)
        c->tickIfDue(cycle_);
    lap(HotloopProfile::kL1d);
    for (auto &c : l2_)
        c->tickIfDue(cycle_);
    lap(HotloopProfile::kL2);
    llc_->tickIfDue(cycle_);
    lap(HotloopProfile::kLlc);
    dram_->tickIfDue(cycle_);
    lap(HotloopProfile::kDram);
    ++cycle_;
}

Cycle
Simulator::nextEventCycle()
{
    // Components were last ticked at cycle_ - 1 (step() post-increments).
    // Cheapest sources first (O(1) cache watermarks, then DRAM, then the
    // per-core scans), bailing out the moment the floor of now + 1 is
    // reached: a busy cycle usually has some cache with work due next
    // cycle, so it never pays for the core-side scan. A cache that only
    // holds refused work sleeps (kCycleNever) until the level below
    // wakes it, so a system waiting on DRAM skips.
    const Cycle now = cycle_ - 1;
    const Cycle lo = now + 1;
    Cycle e = llc_->nextEventCycle(now);
    if (e <= lo)
        return e;
    for (auto &c : l1d_) {
        e = std::min(e, c->nextEventCycle(now));
        if (e <= lo)
            return e;
    }
    for (auto &c : l2_) {
        e = std::min(e, c->nextEventCycle(now));
        if (e <= lo)
            return e;
    }
    for (auto &c : l1i_) {
        e = std::min(e, c->nextEventCycle(now));
        if (e <= lo)
            return e;
    }
    e = std::min(e, dram_->nextEventCycle(now));
    if (e <= lo)
        return e;
    for (auto &core : cores_) {
        e = std::min(e, core->nextEventCycle(now));
        if (e <= lo)
            return e;
    }
    return e;
}

Cycle
Simulator::skipIdle(Cycle limit)
{
    const std::uint64_t t0 = profile_ != nullptr ? profileTimestamp() : 0;
    const Cycle target = std::min(nextEventCycle(), limit);
    if (profile_ != nullptr)
        profile_->ticks[HotloopProfile::kNextEvent] += profileTimestamp() - t0;
    if (target <= cycle_)
        return 0;
    const Cycle delta = target - cycle_;
    // Replay the per-cycle stall counters the elided ticks would have
    // bumped (the only side effect a quiescent cycle has).
    for (auto &core : cores_)
        core->onCyclesSkipped(delta);
    cycle_ = target;
    idle_skipped_ += delta;
    return delta;
}

namespace
{

/** Per-core stat prefix by the naming convention every component in
 *  build() follows: core-owned counters are "cpuN.…", shared ones
 *  (llc, dram, oracle) never start with "cpu". */
std::string
perCorePrefix(unsigned core)
{
    return "cpu" + std::to_string(core) + ".";
}

bool
isPerCoreStat(const std::string &name)
{
    return name.compare(0, 3, "cpu") == 0;
}

} // namespace

SimResult
Simulator::run()
{
    const unsigned n = cfg_.num_cores;
    const InstrCount warmup = cfg_.warmup_instrs;
    // Per-core retirement target: a core's window closes when *it* has
    // retired warmup + sim_instrs, regardless of co-runner progress.
    const InstrCount target = cfg_.warmup_instrs + cfg_.sim_instrs;
    // Configured hard cap, or the automatic hang bound, derived from the
    // per-core target: the run ends when the slowest core retires
    // `target` instructions, and all cores progress concurrently, so an
    // IPC floor of 1/400 on that slowest core bounds the whole run at
    // target * 400 cycles plus fixed cold-start slack. Warmup is part of
    // the bound — with per-core windows the slowest core's warmup can
    // dominate the run, and a cap hit during warmup must still be a
    // clean hit_cycle_cap result (zero-instruction windows, not
    // garbage), which the post-loop accounting below guarantees.
    const Cycle cap = cfg_.max_cycles != 0
        ? cfg_.max_cycles
        : static_cast<Cycle>(target) * 400 + 100'000;

    SimResult res;
    res.scheme = cfg_.scheme.name;
    res.num_cores = n;
    res.sim_instrs = cfg_.sim_instrs;
    res.instrs.assign(n, 0);
    res.ipc.assign(n, 0.0);
    res.warmup_end_cycle.assign(n, 0);
    res.window_cycles.assign(n, 0);

    // Per-core phase machine (ChampSim-style): warming → measuring the
    // cycle the core retires its own warmup quota, → done when it
    // retires sim_instrs more. Under the old global warmup barrier a
    // fast core could pass `target` while slow co-runners were still
    // warming up, so its "measurement window" degenerated to ~1 cycle
    // and its IPC read as ~sim_instrs. Per-core stats are delimited by
    // snapshots at the core's own window boundaries; shared structures
    // (LLC, DRAM, oracle) get one global window from the first window
    // opening to the last one closing.
    enum class Phase : std::uint8_t { Warming, Measuring, Done };
    std::vector<Phase> phase(n, Phase::Warming);
    std::vector<StatSnapshot> window_open(n);
    std::vector<InstrCount> retired_at_open(n, 0);
    StatSnapshot shared_open;
    bool any_window_open = false;
    unsigned remaining = n;

    auto openWindow = [&](unsigned c) {
        phase[c] = Phase::Measuring;
        res.warmup_end_cycle[c] = cycle_;
        retired_at_open[c] = cores_[c]->retired();
        window_open[c] = stats_.snapshot(perCorePrefix(c));
        if (!any_window_open) {
            shared_open = stats_.snapshot();
            any_window_open = true;
        }
    };
    auto closeWindow = [&](unsigned c) {
        phase[c] = Phase::Done;
        res.window_cycles[c] = cycle_ - res.warmup_end_cycle[c];
        for (auto &[stat, delta] : stats_.deltaSince(window_open[c]))
            res.stats.insert_or_assign(stat, delta);
        --remaining;
    };
    auto advancePhases = [&] {
        for (unsigned c = 0; c < n; ++c) {
            if (phase[c] == Phase::Warming
                && cores_[c]->retired() >= warmup) {
                openWindow(c);
            }
            if (phase[c] == Phase::Measuring
                && cores_[c]->retired() >= target) {
                res.instrs[c] = cfg_.sim_instrs;
                closeWindow(c);
            }
        }
    };

    advancePhases();   // warmup_instrs == 0 opens windows at cycle 0
    const bool idle_skip = cfg_.idle_skip;
    Cycle poll_epoch = 0;
    Cycle next_skip_try = 0;
    while (remaining > 0 && cycle_ < cap) {
        step();
        // Wall-clock watchdog (armed by the Runner's StorePolicy): one
        // predictable branch per ~64 Ki cycles, a clock read only when a
        // timeout is actually configured. poll() throws SimTimeoutError,
        // unwinding this run cleanly — simulation state is per-Simulator
        // and dies with it, so a retry starts from scratch. The poll
        // fires on 64 Ki-epoch *crossings*, not exact multiples: the
        // idle skip below can jump the clock over any fixed multiple.
        if ((cycle_ >> 16) != poll_epoch) {
            poll_epoch = cycle_ >> 16;
            watchdog::poll();
        }
        advancePhases();
        // Event-driven idle elision: when every component reports its
        // next possible state change is beyond the next cycle, jump
        // straight there. Bit-identical to ticking through (the skipped
        // ticks' only side effects — per-cycle stall counters — are
        // replayed), including at the cap: a capped run replays exactly
        // the stall counts the cycle-by-cycle loop would have counted.
        // A fruitless scan backs off for a few cycles: skipping is
        // optional (a missed skip just ticks through the quiet cycles),
        // so busy stretches stop paying the scan every cycle.
        if (idle_skip && remaining > 0 && cycle_ < cap
            && cycle_ >= next_skip_try && skipIdle(cap) == 0) {
            next_skip_try = cycle_ + 8;
        }
    }
    res.hit_cycle_cap = remaining > 0;

    // Cores cut off by the cap report what their window really held —
    // the instructions retired since it opened — and a core the cap
    // caught still warming held nothing: zero instructions over a
    // zero-cycle window, with explicit zero stat deltas so the result's
    // stat key set does not depend on where the cap landed.
    for (unsigned c = 0; c < n; ++c) {
        if (phase[c] == Phase::Measuring) {
            res.instrs[c] = std::min<InstrCount>(
                cores_[c]->retired() - retired_at_open[c],
                cfg_.sim_instrs);
            closeWindow(c);
        } else if (phase[c] == Phase::Warming) {
            for (auto &[stat, delta]
                 : stats_.deltaSince(stats_.snapshot(perCorePrefix(c))))
                res.stats.insert_or_assign(stat, delta);
        }
    }

    // Shared-structure window: first window open → last window close
    // (the loop exits the cycle the last window closes, or at the cap).
    // If the cap fired before any window opened the global window is
    // empty and every shared counter reports a zero delta.
    if (!any_window_open)
        shared_open = stats_.snapshot();
    for (auto &[stat, delta] : stats_.deltaSince(shared_open)) {
        if (!isPerCoreStat(stat))
            res.stats.insert_or_assign(stat, delta);
    }

    for (unsigned c = 0; c < n; ++c) {
        res.ipc[c] = res.window_cycles[c] == 0
            ? 0.0
            : static_cast<double>(res.instrs[c])
                / static_cast<double>(res.window_cycles[c]);
    }
    return res;
}

StorageBudget
Simulator::tlpStorageBudget()
{
    StorageBudget b;

    StatGroup scratch("scratch");
    OffChipPredictor::Params fp;
    fp.name = "flp";
    OffChipPredictor flp(fp, &scratch);
    b.merge(flp.storage(), "FLP: ");

    Slp::Params sp;
    Slp slp(sp, &scratch);
    b.merge(slp.storage(), "SLP: ");

    // Load Queue metadata (Table II): hashed PC 32b + last-4 PC 10b +
    // first access 1b + confidence 5b, per LQ entry (72 entries).
    b.add("LQ metadata", std::uint64_t{72} * (32 + 10 + 1 + 5));
    // L1D MSHR metadata: same + prediction bit, per MSHR (10 entries).
    b.add("L1D MSHR metadata", std::uint64_t{10} * (32 + 10 + 1 + 5 + 1));
    return b;
}

} // namespace tlpsim
