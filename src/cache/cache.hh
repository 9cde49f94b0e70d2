/**
 * @file
 * Set-associative write-back cache with MSHRs, read/write/prefetch queues,
 * LRU replacement, prefetcher + filter hooks, and the FLP delayed
 * speculative-DRAM path.
 *
 * Timing model (ChampSim-class): a request entering a queue becomes
 * eligible for tag lookup after the cache's access latency; hits respond
 * at lookup time, misses allocate an MSHR and forward downstream, and
 * fills respond to all merged waiters the cycle they are installed.
 *
 * Acceptance comes first: a due request is accepted as a hit, as a merge
 * into an outstanding MSHR, or with a free MSHR plus room in the level
 * below, and only then counted and acted on (the hit/miss count, the
 * delayed speculative DRAM read, prefetcher training, filter callbacks),
 * once per request, as ChampSim counts a miss when it gets or merges
 * into an MSHR. A refused request leaves no trace and stays at its queue
 * front. A tick that moved nothing sleeps until a fill arrives, a new
 * request arrives, or the level below frees room and wakes it
 * (MemorySender); the wake is for the first cycle a per-cycle retry
 * would have succeeded, so sleeping is bit-identical to retrying.
 *
 * Prefetch fill levels: a prefetch packet carries the *lowest* level that
 * should allocate it (1=L1D, 2=L2C, 3=LLC). Every level at or below its
 * own number allocates the line on the fill path, as in ChampSim.
 */

#ifndef TLPSIM_CACHE_CACHE_HH
#define TLPSIM_CACHE_CACHE_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/packet.hh"
#include "prefetch/prefetcher.hh"

namespace tlpsim
{

class DramController;

/**
 * Translates virtual prefetch candidates to physical addresses (L1D
 * only). A direct virtual call, not std::function: the hook fires per
 * prefetch candidate — the hottest translation path in the system — and
 * one owner (the Simulator's page-table adapter) serves every core,
 * dispatched on the core argument, mirroring SpecIssueObserver.
 */
class Translator
{
  public:
    virtual ~Translator() = default;

    virtual Addr translate(std::uint8_t core, Addr vaddr) = 0;
};

class Cache : public MemoryBackend, public MemoryClient, public MemorySender
{
  public:
    struct Params
    {
        std::string name = "cache";
        MemLevel level = MemLevel::L1D;
        /** Numeric level for fill decisions: 1=L1, 2=L2, 3=LLC. */
        unsigned level_num = 1;
        unsigned sets = 64;
        unsigned ways = 8;
        unsigned latency = 4;
        unsigned mshrs = 10;
        unsigned rq_size = 32;
        unsigned wq_size = 32;
        unsigned pq_size = 16;
        /** Tag lookups per cycle across RQ/WQ/PQ. */
        unsigned lookups_per_cycle = 4;
        /** Allow demand loads hitting here to serve (always true). */
        Prefetcher *prefetcher = nullptr;
        PrefetchFilter *filter = nullptr;
        /** L1D only: translate virtual prefetch candidates (direct
         *  virtual call; hot path — see Translator). */
        Translator *translator = nullptr;
        /** L1D only: DRAM controller for delayed FLP speculative reads. */
        DramController *spec_dram = nullptr;
        /** Extra cycles between miss detection and spec issue (paper: 6). */
        unsigned spec_latency = 6;
        /** Notified when this cache issues a delayed speculative DRAM
         *  read (direct call; hot path — see SpecIssueObserver). */
        SpecIssueObserver *spec_observer = nullptr;
    };

    Cache(const Params &p, MemoryBackend *lower, StatGroup *stats);

    // MemoryBackend
    bool sendRead(const Packet &pkt) override;
    bool sendWrite(const Packet &pkt) override;
    bool sendPrefetch(const Packet &pkt) override;
    bool canAcceptRead() const override { return rq_.size() < params_.rq_size; }
    bool probe(Addr paddr) const override;
    void tick(Cycle now) override;

    /** Per-cycle entry point for the simulator loop: checks the quiet
     *  watermark inline so a no-op cycle costs one compare instead of a
     *  virtual call into tick()'s identical early return. */
    void
    tickIfDue(Cycle now)
    {
        if (now >= next_ready_)
            tick(now);
    }

    /**
     * Earliest cycle strictly after @p now at which tick() has any work
     * (kCycleNever if asleep until a send, a fill or a wake arrives).
     * Valid after tick(now); the same watermark also short-circuits
     * quiet ticks.
     */
    Cycle nextEventCycle(Cycle now) const
    {
        return next_ready_ > now ? next_ready_ : now + 1;
    }

    // MemoryClient (fills returning from the lower level)
    void memReturn(const Packet &pkt) override;

    // MemorySender (the lower level freed room)
    void wake(Cycle at) override { next_ready_ = std::min(next_ready_, at); }

    const Params &params() const { return params_; }

    /** Demand misses outstanding (used by tests). */
    std::size_t mshrsInUse() const { return mshrs_.size(); }

    /** Storage of data+tag arrays (for the Fig. 17 budget bench). */
    std::uint64_t storageBits() const;

  private:
    /** Sentinel in tags_ for an invalid way: larger than any block
     *  number the 46-bit physical space (plus PTE region) can produce. */
    static constexpr Addr kNoTag = ~Addr{0};

    /** Per-way metadata. The tag and LRU stamp live in the parallel
     *  tags_/lru_ arrays — the lookup/probe tag scans and the victim
     *  scan each walk one flat array (a set's 8-16 entries span one or
     *  two cache lines) without dragging the rest of the metadata
     *  through. A way is valid iff its tags_ entry != kNoTag. */
    struct Block
    {
        bool dirty = false;
        bool prefetched = false; ///< filled by a prefetch, not yet used
        MemLevel pf_served_from = MemLevel::None;
    };

    struct Mshr
    {
        Addr block = 0;          ///< block number
        AccessType type = AccessType::Load;   ///< promoted on demand merge
        bool demand_merged = false;           ///< late prefetch marker
        bool dirty_on_fill = false;           ///< store miss: dirty the fill
        Packet primary;          ///< first packet (carries pred_meta)
        std::vector<Packet> waiters;
    };

    struct TimedPacket
    {
        Packet pkt;
        Cycle ready_at;
    };

    Block *lookup(Addr paddr, bool update_lru);
    Mshr *findMshr(Addr paddr);

    /** Recompute next_ready_ from the queue fronts (end of tick());
     *  @p progressed: the tick installed a fill or accepted a request. */
    Cycle computeNextReady(Cycle now, bool progressed) const;

    /** Send @p pkt's miss below as this level's request, if an MSHR is
     *  free. False (no free MSHR, or a refusal below) changes nothing. */
    bool forwardMiss(const Packet &pkt, Cycle now);
    /** Track @p pkt's accepted miss, already forwarded below. */
    void allocateMshr(const Packet &pkt, bool dirty_on_fill);

    void processFills(Cycle now);
    bool processRead(TimedPacket &entry, Cycle now);
    bool processWrite(TimedPacket &entry, Cycle now);
    bool processPrefetch(TimedPacket &entry, Cycle now);
    void flushSpecDelay(Cycle now);

    /** Install @p pkt's block; false if blocked on a full lower WQ. */
    bool install(const Packet &pkt, Cycle now);

    void respond(Packet pkt, MemLevel served_by);
    void notifyPrefetcher(const Packet &pkt, bool hit, bool prefetch_hit,
                          Cycle now);
    /** @p tag is the victim's tags_ entry (kNoTag for an empty way). */
    void classifyEviction(Addr tag, const Block &blk);
    void countAccess(AccessType type, bool hit);

    Params params_;
    MemoryBackend *lower_;
    StatGroup *stats_;

    std::vector<Addr> tags_;        ///< per way; kNoTag = invalid
    std::vector<std::uint64_t> lru_; ///< LRU stamps parallel to tags_
    std::vector<Block> blocks_;     ///< metadata parallel to tags_
    std::vector<Mshr> mshrs_;
    // FIFO queues are rings, not deques: libstdc++'s deque mallocs and
    // frees a node every ~512B of traffic, which lands on the per-cycle
    // path. Each ring is reserved to its Params bound in the ctor.
    Ring<TimedPacket> rq_;
    Ring<TimedPacket> wq_;
    Ring<TimedPacket> pq_;
    Ring<TimedPacket> fills_;
    Ring<TimedPacket> spec_delay_;
    /** One waiter vector per live MSHR: MSHR creation is gated on
     *  mshrs_.size() < p.mshrs, which bounds the vectors out. */
    WaiterPool waiter_pool_;
    std::vector<PrefetchCandidate> cand_buf_;
    std::uint64_t lru_clock_ = 0;
    /** Quiet-cycle watermark: when now < next_ready_, tick(now) would
     *  change nothing (no spec issue or queue front due, or only refused
     *  work that no event has re-armed), so tick() returns immediately.
     *  Pushed down by sendRead/sendWrite/sendPrefetch/memReturn/wake,
     *  recomputed at the end of a full tick. */
    Cycle next_ready_ = 0;

    // Per-type hit/miss counters, indexed by AccessType.
    Counter *hit_[5];
    Counter *miss_[5];
    Counter *mshr_merge_;
    Counter *pf_issued_;
    Counter *pf_filtered_;
    Counter *pf_dropped_queue_;
    Counter *pf_dup_;
    Counter *pf_useful_;
    Counter *pf_useless_;
    Counter *pf_late_;
    Counter *writebacks_;
    Counter *spec_delayed_issued_;
    // Usefulness bucketed by where the prefetch was served from
    // (index by MemLevel: L1D unused, L2C, LLC, Dram).
    Counter *pf_useful_from_[4];
    Counter *pf_useless_from_[4];
};

} // namespace tlpsim

#endif // TLPSIM_CACHE_CACHE_HH
