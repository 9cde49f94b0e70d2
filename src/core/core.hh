/**
 * @file
 * Trace-driven out-of-order core (Table III: 3.8 GHz, 4-wide, 6-stage,
 * 224-entry ROB), in the ChampSim modelling style.
 *
 * The core consumes retired-instruction records, renames their register
 * dependencies onto a producer/consumer wakeup graph, and models:
 *   - 4-wide fetch/dispatch gated by L1I misses and branch mispredictions
 *     (hashed-perceptron predictor; mispredicts stall fetch until the
 *     branch resolves plus a refill penalty);
 *   - dataflow execution: ALU ops complete ready+1, loads walk
 *     DTLB/STLB (page walks become Translation reads into the L2) and
 *     access the L1D, stores commit their write at retire;
 *   - store-to-load forwarding via a pending-store address map;
 *   - the off-chip prediction hook: FLP/Hermes are consulted once per
 *     load, as it is sent to the L1D (translated, with room in the L1D
 *     read queue); "immediate" decisions fire a speculative
 *     DRAM read from the core (6-cycle predictor latency), "delayed"
 *     decisions tag the demand packet for issue-on-L1D-miss; training
 *     runs when the *demand* response returns with the true serve level.
 *
 * In-flight state lives in structure-of-arrays form: the ROB is a set of
 * parallel per-field arrays (state, ready, done, serial, ...) rather
 * than an array of structs, so the per-cycle scans (issue-list walk,
 * retire probe, wakeup chains) touch only the cache lines of the fields
 * they read. The per-entry dependent lists are intrusive chains through
 * fixed arrays (a slot has at most two unresolved operands, so
 * slot*2+operand is a perfect chain-node id) — no per-entry vectors.
 */

#ifndef TLPSIM_CORE_CORE_HH
#define TLPSIM_CORE_CORE_HH

#include <algorithm>
#include <vector>

#include "common/flat_table.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "core/branch_pred.hh"
#include "mem/packet.hh"
#include "offchip/offchip_predictor.hh"
#include "tlb/page_table.hh"
#include "tlb/tlb.hh"
#include "trace/trace.hh"

namespace tlpsim
{

class DramController;

class Core : public MemoryClient, public MemorySender
{
  public:
    struct Params
    {
        unsigned id = 0;
        unsigned fetch_width = 4;
        unsigned retire_width = 4;
        unsigned rob_size = 224;
        unsigned lq_size = 72;
        unsigned sq_size = 56;
        unsigned load_ports = 2;
        unsigned mispredict_penalty = 6;   ///< refill bubbles post-resolve
        unsigned spec_latency = 6;         ///< FLP/Hermes trigger latency
        std::string name = "cpu0";
    };

    /** External units the core talks to. */
    struct Ports
    {
        TraceReader *trace = nullptr;
        MemoryBackend *l1i = nullptr;
        MemoryBackend *l1d = nullptr;
        /** Page-walk reads go here (the L2, as ChampSim's PTW does). */
        MemoryBackend *walk_target = nullptr;
        TranslationStack *tlbs = nullptr;
        PageTable *page_table = nullptr;
        DramController *dram = nullptr;
        OffChipPredictor *offchip = nullptr;
        /** Observer for Fig. 4: speculative request issued (core side);
         *  direct virtual call, not std::function — hot path. */
        SpecIssueObserver *spec_observer = nullptr;
    };

    Core(const Params &p, const Ports &ports, StatGroup *stats);

    void tick(Cycle now);

    /**
     * Per-cycle entry point for the simulator loop. During a quiet
     * window (tick() could change no state per nextEventCycle(), and no
     * response has arrived since — memReturn() drops the watermark) the
     * full pipeline walk collapses to the same per-cycle stall-counter
     * replay the global idle skip uses, so a stalled core costs a
     * compare and a counter bump instead of retire/issue/fetch scans.
     */
    void
    tickIfDue(Cycle now)
    {
        if (now < quiet_until_) {
            // Keep now_ fresh: responses arriving later this cycle
            // timestamp wakeups at now_ + 1, exactly as they would had
            // the core run its (no-op) tick.
            now_ = now;
            onCyclesSkipped(1);
            return;
        }
        tick(now);
        quiet_until_ = nextEventCycle(now);
    }

    void memReturn(const Packet &pkt) override;

    /** MemorySender: the L1D accepted a request after refusing a
     *  store, so its write queue may have room; the store retries at
     *  @p at. */
    void
    wake(Cycle at) override
    {
        store_blocked_ = false;
        quiet_until_ = std::min(quiet_until_, at);
    }

    InstrCount retired() const { return retired_; }

    /**
     * Earliest cycle strictly after @p now at which tick() could change
     * architectural state or a stat, assuming no other component acts
     * first (events arriving via memReturn are the other components'
     * events and show up in *their* nextEventCycle). Must be called
     * after tick(now). Returns kCycleNever when the core is fully
     * quiescent until an external response arrives; per-cycle stall
     * counters during such a window are replayed by onCyclesSkipped().
     * (Non-const: inspecting the fetch gate peeks the trace cursor,
     * which may refill its chunk buffer.)
     */
    Cycle nextEventCycle(Cycle now);

    /**
     * Replay the per-cycle stat side effects of @p delta skipped no-op
     * ticks (ifetch stall / ROB-full counters), keeping a skipped run's
     * counters bit-identical to a cycle-by-cycle run. Only valid when
     * every skipped cycle was quiescent per nextEventCycle().
     */
    void onCyclesSkipped(Cycle delta);

    /** L1I presence check is routed through this probe+touch interface. */
    struct IfetchState
    {
        Addr last_line = ~Addr{0};
        bool waiting = false;
    };

  private:
    enum class State : std::uint8_t
    {
        WaitOps,     ///< operands unresolved
        WaitIssue,   ///< load: operands ready, not yet sent
        WaitWalk,    ///< load: page walk outstanding
        WaitMem,     ///< load: demand access outstanding
        Done,
    };

    struct RegState
    {
        Cycle ready = 0;
        std::int32_t producer_slot = -1;
        std::uint64_t producer_serial = 0;
    };

    struct LoadTraining
    {
        std::uint32_t rob_slot = 0;
        std::uint64_t serial = 0;
        PredictionMeta meta;
        bool data_done = false;
    };

    /** One outstanding page walk; deduped per virtual page, like a PTW
     *  MSHR: loads to the same page wait on the same walk. Waiters are
     *  chained through walk_next_ (indexed by rob slot), so piggybacking
     *  never allocates: a rob slot waits on at most one walk at a time,
     *  which makes the per-slot link array a perfect intrusive list. */
    struct WalkInflight
    {
        Addr vaddr = 0;
        std::int32_t head = -1;   ///< oldest waiting rob slot, -1 = none
        std::int32_t tail = -1;   ///< newest waiter (append point)
    };

    static constexpr std::uint64_t kIfetchReqId = ~std::uint64_t{0};

    void fetchAndDispatch(Cycle now);
    void dispatch(const TraceInstr &instr, Cycle now);
    void scheduleExec(std::uint32_t slot, Cycle now);
    void complete(std::uint32_t slot, Cycle done_cycle);
    void resolveOperand(std::uint32_t slot, Cycle ready_cycle, Cycle now);
    void issueLoads(Cycle now);
    bool issueOneLoad(std::uint32_t slot, Cycle now);
    void retire(Cycle now);
    void flushSpecDelay(Cycle now);
    bool fetchBlocked(Cycle now) const;
    void addDependent(std::uint32_t producer, std::uint32_t slot,
                      unsigned operand);

    std::uint32_t robIndex(std::uint64_t i) const
    {
        return static_cast<std::uint32_t>(i % rob_size_);
    }

    bool robFull() const { return rob_tail_ - rob_head_ >= rob_size_; }

    Params params_;
    Ports ports_;
    BranchPredictor bpred_;

    // ROB in structure-of-arrays form: one array per field, indexed by
    // rob slot. The per-cycle loops (retire head probe, issue-list scan,
    // wakeup-chain walks) each touch only the arrays they need, instead
    // of dragging a whole ~100-byte RobEntry line in per probe.
    std::size_t rob_size_ = 0;
    std::vector<Addr> rob_ip_;
    std::vector<Addr> rob_ld_vaddr_;
    std::vector<Addr> rob_st_vaddr_;
    std::vector<RegId> rob_dst_;
    std::vector<std::uint8_t> rob_unresolved_;
    std::vector<std::uint8_t> rob_is_load_;
    std::vector<std::uint8_t> rob_is_store_;
    std::vector<std::uint8_t> rob_mispred_;
    std::vector<State> rob_state_;
    std::vector<Cycle> rob_ready_;    ///< operand-ready cycle
    std::vector<Cycle> rob_done_;     ///< completion cycle (valid in Done)
    std::vector<std::uint64_t> rob_serial_;
    std::vector<std::uint64_t> rob_load_id_;
    /** Intrusive dependent chains: a consumer waits on at most two
     *  producers (operand 0/1), so chain node slot*2+operand uniquely
     *  names "operand N of consumer S". dep_head_/dep_tail_ are per
     *  producer slot; dep_next_ is per chain node. Append at tail keeps
     *  the wakeup order identical to the old per-entry vectors. */
    std::vector<std::int32_t> dep_head_;
    std::vector<std::int32_t> dep_tail_;
    std::vector<std::int32_t> dep_next_;

    std::uint64_t rob_head_ = 0;   ///< absolute index of oldest entry
    std::uint64_t rob_tail_ = 0;   ///< absolute index one past youngest
    std::uint64_t next_serial_ = 1;
    std::uint64_t next_load_id_ = 1;

    std::vector<RegState> regs_;
    std::vector<std::uint32_t> issue_list_;   ///< rob slots in WaitIssue
    // In-flight bookkeeping lives in fixed-capacity flat tables, not
    // node-based maps: the per-cycle loop must not touch the allocator
    // in steady state (tests/test_hotpath_alloc.cpp enforces this).
    FlatTable<LoadTraining> inflight_loads_;
    FlatTable<WalkInflight> walk_inflight_;
    FlatTable<int> pending_store_words_;
    /** Per-rob-slot intrusive links for WalkInflight waiter chains. */
    std::vector<std::int32_t> walk_next_;
    std::vector<std::uint64_t> walk_serial_;
    /** Hard cap on outstanding demand loads tracked in inflight_loads_
     *  (issue stalls at the cap, giving the table a strict bound). */
    std::size_t inflight_load_cap_ = 0;
    Ring<std::pair<Cycle, Packet>> spec_delay_;

    unsigned loads_in_flight_ = 0;
    unsigned stores_in_flight_ = 0;
    unsigned fetch_block_tokens_ = 0;
    Cycle fetch_stall_until_ = 0;
    IfetchState ifetch_;
    /** Set when this tick's fetch broke on a failed L1I sendRead (queue
     *  full, not waiting): that path bumps ifetch_stalls every retry
     *  cycle, so nextEventCycle() must refuse to skip over it. */
    bool fetch_retry_ = false;
    /** Set when retire broke on a store the L1D refused. Only wake()
     *  clears it: the head store is not offered again, not even on a
     *  tick another event drives, until the L1D wakes the core, as a
     *  refused cache request sleeps until the level below wakes it. */
    bool store_blocked_ = false;
    InstrCount retired_ = 0;
    Cycle now_ = 0;
    /** Quiet watermark for tickIfDue(): nextEventCycle() of the last
     *  real tick, dropped to 0 whenever a response arrives. */
    Cycle quiet_until_ = 0;

    Counter *instrs_;
    Counter *loads_;
    Counter *stores_;
    Counter *branches_;
    Counter *ifetch_stalls_;
    Counter *rob_full_;
    Counter *fwd_loads_;
    Counter *walks_;
    Counter *spec_from_core_;
};

} // namespace tlpsim

#endif // TLPSIM_CORE_CORE_HH
