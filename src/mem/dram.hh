/**
 * @file
 * DDR4-like memory controller (Table III).
 *
 * Models what matters to the paper's experiments: bank-level row-buffer
 * locality (tRP = tRCD = tCAS = 24 cycles), a shared data bus whose burst
 * occupancy enforces the configured bandwidth (12.8 GB/s single-core,
 * 3.2 GB/s per core multi-core, swept 1.6–25.6 in Fig. 16), FR-FCFS
 * scheduling with write-drain bursts, and the speculative-request path
 * Hermes/FLP use: speculative reads fetch a line into a small per-core
 * buffer near the controller; a later demand read to the same line merges
 * with the in-flight access or consumes the buffered line instead of
 * paying a second DRAM transaction.
 */

#ifndef TLPSIM_MEM_DRAM_HH
#define TLPSIM_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/packet.hh"

namespace tlpsim
{

class DramController : public MemoryBackend
{
  public:
    struct Params
    {
        std::string name = "dram";
        unsigned banks = 8;
        unsigned blocks_per_row = 128;   ///< 8 KiB row buffer
        unsigned t_rp = 24;
        unsigned t_rcd = 24;
        unsigned t_cas = 24;
        /** Core cycles the data bus is busy per 64 B transfer. */
        unsigned burst_cycles = 19;      ///< 12.8 GB/s at 3.8 GHz
        unsigned rq_size = 64;
        unsigned wq_size = 64;
        /** Speculative-line buffer entries per core (Hermes path). */
        unsigned spec_buffer_entries = 64;
        unsigned num_cores = 1;
    };

    DramController(const Params &p, StatGroup *stats);

    bool sendRead(const Packet &pkt) override;
    bool sendWrite(const Packet &pkt) override;
    bool canAcceptRead() const override
    {
        return read_q_.size() < params_.rq_size;
    }
    bool probe(Addr) const override { return false; }
    void tick(Cycle now) override;

    /** Per-cycle entry point for the simulator loop: skips tick() while
     *  the controller is provably inert (no completion due, and either
     *  nothing queued or the bus gate / all-banks-busy quiet window
     *  holds), so a waiting cycle costs one compare instead of a
     *  virtual call plus three early-return checks. */
    void
    tickIfDue(Cycle now)
    {
        if (now >= next_tick_)
            tick(now);
    }

    /**
     * Earliest cycle strictly after @p now at which a *full* tick (one
     * reaching the drain-policy update and the scheduler) runs — the
     * same watermark tickIfDue() uses, kCycleNever when fully drained.
     * Deliberately no tighter (see the definition): the drain flag is
     * hysteresis with memory, so an idle skip must not jump past any
     * full tick or skip-on and skip-off runs diverge. Valid after
     * tick(now).
     */
    Cycle nextEventCycle(Cycle now) const;

    /** True iff a completed speculative line for @p paddr is buffered. */
    bool specBufferHolds(std::uint8_t core, Addr paddr) const;

    std::uint64_t transactions() const { return txn_->value(); }

    const Params &params() const { return params_; }

  private:
    struct QueueEntry
    {
        Packet pkt;
        Cycle arrival;
        std::vector<Packet> waiters;   ///< merged demand reads
    };

    struct Bank
    {
        Cycle ready_at = 0;
        Addr open_row = ~Addr{0};
    };

    struct InFlight
    {
        QueueEntry entry;
        Cycle done;
    };

    /** Per-core speculative line buffer entry. */
    struct SpecLine
    {
        Addr block = 0;
        bool ready = false;
        bool valid = false;
        Cycle fetched_at = 0;
    };

    unsigned bankOf(Addr paddr) const;
    Addr rowOf(Addr paddr) const;

    /** Pick the next read/write with FR-FCFS and start it. Returns
     *  kCycleNever when a request issued (or the queue is empty);
     *  otherwise the earliest ready_at among the queue's banks — the
     *  first cycle a re-scan could pick anything. */
    Cycle scheduleOne(Cycle now, std::vector<QueueEntry> &queue,
                      bool is_write);

    void completeReads(Cycle now);

    SpecLine *findSpecLine(std::uint8_t core, Addr block);
    SpecLine *allocSpecLine(std::uint8_t core, Addr block, Cycle now);

    Params params_;
    // The queues are vectors (reserved to their Params bound), not
    // deques: FR-FCFS scans by index and erases in the middle anyway,
    // and libstdc++'s deque frees/reallocates nodes as entries cycle.
    std::vector<QueueEntry> read_q_;
    std::vector<QueueEntry> write_q_;
    std::vector<InFlight> in_flight_;
    /** One waiter vector per live read entry, queued or in flight: the
     *  read queue is gated at rq_size, and the issue gating in tick()
     *  keeps the in-flight list shallow. */
    WaiterPool waiter_pool_;
    std::vector<Bank> banks_;
    std::vector<std::vector<SpecLine>> spec_buffer_;   ///< [core][entry]
    Cycle bus_free_at_ = 0;
    bool draining_writes_ = false;
    /** Address-mapping shifts, fixed at construction (bankOf/rowOf run
     *  inside the FR-FCFS scan loops). */
    unsigned bank_shift_ = 0;
    unsigned row_shift_ = 0;
    /** Quiet watermark: before this cycle a scheduling scan cannot pick
     *  (every queued request's bank is busy and no new entries arrived).
     *  Set from a fruitless scan's bank horizon, cleared on enqueue and
     *  after every issue. Ticks inside the window skip the scan — they
     *  would change no state (the drain-policy update is a pure function
     *  of queue sizes, which such ticks leave alone). */
    Cycle sched_quiet_until_ = 0;
    /** Exact earliest in-flight completion (kCycleNever when none):
     *  pushed down on issue, recomputed by every completion sweep.
     *  Lets completeReads() skip its scan on the vast majority of
     *  cycles and nextEventCycle() avoid walking in_flight_. */
    Cycle next_done_ = kCycleNever;
    /** Quiet watermark for tickIfDue(): min of the next completion and
     *  the first cycle the scheduler could act (bus-gate clearance and
     *  the sched_quiet_until_ window), recomputed after every tick and
     *  dropped to 0 by every enqueue. */
    Cycle next_tick_ = 0;

    /** Recompute next_tick_ from maintained state (end of tick()). */
    Cycle computeNextTick(Cycle now) const;

    Counter *txn_;
    Counter *reads_;
    Counter *writes_;
    Counter *row_hits_;
    Counter *row_misses_;
    Counter *spec_issued_;
    Counter *spec_consumed_;
    Counter *spec_merged_inflight_;
    Counter *spec_wasted_;
    Counter *spec_dropped_full_;
    Counter *rq_merges_;
};

} // namespace tlpsim

#endif // TLPSIM_MEM_DRAM_HH
