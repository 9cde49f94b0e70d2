/**
 * @file
 * Memory request packets and the unit interfaces they flow between.
 *
 * Packets are value types: every queue and MSHR stores its own copy, so
 * there is no shared-ownership lifetime to manage. Requests flow *down*
 * (core → L1D → L2 → LLC → DRAM) through MemoryBackend::send*() and
 * responses flow *up* by invoking the requestor's memReturn() with a copy
 * carrying the final serve level.
 *
 * A refused send leaves no trace on either side, so a level whose due
 * requests are all refused may sleep: the level below re-arms its
 * registered senders (MemorySender::wake) when it frees room.
 */

#ifndef TLPSIM_MEM_PACKET_HH
#define TLPSIM_MEM_PACKET_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace tlpsim
{

/** Max feature tables any perceptron predictor in the system uses
 *  (PPF is the largest at 9). */
constexpr unsigned kMaxFeatures = 10;

/**
 * Snapshot of a perceptron prediction, stored with the request so the
 * predictor can train on the true outcome when the request completes.
 * This is the paper's "Load Queue metadata" / "L1D MSHR metadata"
 * (Table II): hashed feature indices, confidence, and the prediction bit.
 */
struct PredictionMeta
{
    std::array<std::uint16_t, kMaxFeatures> index{};
    std::uint8_t num_features = 0;
    std::int16_t confidence = 0;
    bool predicted_offchip = false;
    bool valid = false;
};

/** One memory request (or its response). */
struct Packet
{
    Addr vaddr = 0;    ///< block-aligned virtual address
    Addr paddr = 0;    ///< block-aligned physical address
    Addr ip = 0;       ///< PC of the triggering instruction
    AccessType type = AccessType::Load;
    std::uint8_t core = 0;
    /** Lowest hierarchy level that allocates the fill (1=L1, 2=L2, 3=LLC). */
    std::uint8_t fill_level = 1;
    /** Hermes/FLP speculative DRAM request (does not fill caches). */
    bool spec_dram = false;
    /** FLP low-confidence tag: issue the speculative request on L1D miss. */
    bool delayed_offchip_flag = false;
    /** FLP/Hermes output bit, consumed by SLP as a feature. */
    bool offchip_pred = false;
    /** Level that ultimately provided the data. */
    MemLevel served_by = MemLevel::None;
    Cycle birth = 0;
    /** Who to notify on completion (nullptr = fire and forget). */
    class MemoryClient *requestor = nullptr;
    /** Requestor-private tag (e.g. load-queue index). */
    std::uint64_t req_id = 0;
    /** Prefetcher-private metadata (e.g. SPP signature/confidence). */
    std::uint32_t pf_metadata = 0;
    /** SLP training metadata for L1D prefetches (paper's MSHR metadata). */
    PredictionMeta pred_meta;

    bool isDemand() const
    {
        return type == AccessType::Load || type == AccessType::Rfo;
    }
};

/**
 * Recycled waiter vectors for a level's in-flight entries (a cache's
 * MSHRs, the DRAM controller's read entries): an entry takes one when it
 * opens and gives it back when it completes, keeping its capacity, so
 * steady-state merges never touch the allocator. The pool is filled to
 * its circulation bound at construction, so take() never constructs
 * fresh storage on the per-cycle path, not even the first time a level
 * reaches a new occupancy high-water mark.
 */
class WaiterPool
{
  public:
    /** @p bound: the most vectors out at once (live entries). */
    explicit WaiterPool(std::size_t bound) : pool_(bound)
    {
        for (std::vector<Packet> &v : pool_)
            v.reserve(kReserve);
    }

    // tlpsim:hot
    std::vector<Packet>
    take()
    {
        if (pool_.empty())
            return {};
        std::vector<Packet> v = std::move(pool_.back());
        pool_.pop_back();
        return v;
    }

    void
    give(std::vector<Packet> &&v)
    {
        v.clear();
        pool_.push_back(   // tlpsim:waive(hotpath) filled to its bound
            std::move(v));
    }
    // tlpsim:endhot

  private:
    /** Initial per-vector capacity. A line that streams loads while its
     *  miss is outstanding collects up to 16 waiters (four bc.road cores,
     *  HotPathAlloc's saturated case). A vector grows past this only
     *  once, but on its own first such burst, which can come millions of
     *  cycles after warmup. */
    static constexpr std::size_t kReserve = 16;
    std::vector<std::vector<Packet>> pool_;
};

/**
 * Observer for Hermes/FLP speculative DRAM issues (the Fig. 4 oracle).
 * A direct virtual call replaces the old std::function hook: the probe
 * fires on the on_spec_issued hot path, where the extra indirection and
 * potential allocation of std::function showed up in profiles (see
 * ROADMAP).
 */
class SpecIssueObserver
{
  public:
    virtual ~SpecIssueObserver() = default;

    /** @p pkt is the speculative request; pkt.core identifies the core. */
    virtual void onSpecIssued(const Packet &pkt) = 0;
};

/** Receives completions for requests it issued. */
class MemoryClient
{
  public:
    virtual ~MemoryClient() = default;

    /** Called exactly once per completed read-like request copy. */
    virtual void memReturn(const Packet &pkt) = 0;
};

/**
 * A unit that sends requests to a MemoryBackend and sleeps on a refusal:
 * a Cache once every due request it holds was refused, a Core on a store
 * its L1D refused. A direct virtual call, made only when a backend that
 * refused someone frees room.
 */
class MemorySender
{
  public:
    virtual ~MemorySender() = default;

    /** Tick again no later than cycle @p at. */
    virtual void wake(Cycle at) = 0;
};

/** Anything a cache (or core) can send requests to. */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /** Enqueue a demand/translation read. False = refused, retry later.
     *  A refusal changes no simulated state. */
    virtual bool sendRead(const Packet &pkt) = 0;

    /** Enqueue a writeback/store. False = refused, retry later. */
    virtual bool sendWrite(const Packet &pkt) = 0;

    /** Enqueue a prefetch (lower priority). False = refused. */
    virtual bool sendPrefetch(const Packet &pkt) { return sendRead(pkt); }

    /** Room for a read: true promises that sendRead() accepts this
     *  cycle, so a caller can settle a request's fate before acting on
     *  it. False is exact for a queue-only backend; one with merge paths
     *  (DRAM) may still accept some reads. */
    virtual bool canAcceptRead() const = 0;

    /** Tag-array presence check with no state change (oracle probes). */
    virtual bool probe(Addr paddr) const = 0;

    /** Advance one core clock. */
    virtual void tick(Cycle now) = 0;

    /** Register a unit that sends here. The list is fixed when the
     *  system is built (core → L1D, L1D and L1I → L2, each L2 → LLC,
     *  LLC → DRAM). */
    void addSender(MemorySender *s) { senders_.push_back(s); }

  protected:
    /** A send*() is about to return false. */
    void noteRefusal() { refused_ = true; }

    /**
     * This backend freed a queue entry during its tick at @p now. If it
     * refused anyone since the last wake, re-arm every sender for
     * now + 1: senders tick before the levels they send to, so that is
     * the first cycle a per-cycle retry would have succeeded, and
     * sleeping stays bit-identical to retrying.
     */
    void
    wakeSenders(Cycle now)
    {
        if (!refused_)
            return;
        refused_ = false;
        for (MemorySender *s : senders_)
            s->wake(now + 1);
    }

  private:
    std::vector<MemorySender *> senders_;
    bool refused_ = false;
};

} // namespace tlpsim

#endif // TLPSIM_MEM_PACKET_HH
