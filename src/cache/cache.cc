#include "cache/cache.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"
#include "mem/dram.hh"

namespace tlpsim
{

namespace
{

const char *kTypeNames[] = {"load", "rfo", "pf", "wb", "trans"};

int
levelIndex(MemLevel l)
{
    switch (l) {
      case MemLevel::L2C: return 1;
      case MemLevel::LLC: return 2;
      case MemLevel::Dram: return 3;
      default: return 0;
    }
}

/** Way of the first tags[w] == tag, or -1. kNoTag never equals a block
 *  number, so invalid ways never match. */
inline int
findWay(const Addr *tags, unsigned ways, Addr tag)
{
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == tag)
            return static_cast<int>(w);
    }
    return -1;
}

} // namespace

Cache::Cache(const Params &p, MemoryBackend *lower, StatGroup *stats)
    : params_(p), lower_(lower), stats_(stats),
      tags_(static_cast<std::size_t>(p.sets) * p.ways, kNoTag),
      lru_(static_cast<std::size_t>(p.sets) * p.ways, 0),
      blocks_(static_cast<std::size_t>(p.sets) * p.ways),
      waiter_pool_(p.mshrs)
{
    assert(isPowerOfTwo(p.sets));
    for (int t = 0; t < 5; ++t) {
        hit_[t] = stats->counter(p.name + "." + kTypeNames[t] + "_hit");
        miss_[t] = stats->counter(p.name + "." + kTypeNames[t] + "_miss");
    }
    mshr_merge_ = stats->counter(p.name + ".mshr_merge");
    pf_issued_ = stats->counter(p.name + ".pf_issued");
    pf_filtered_ = stats->counter(p.name + ".pf_filtered");
    pf_dropped_queue_ = stats->counter(p.name + ".pf_dropped_queue");
    pf_dup_ = stats->counter(p.name + ".pf_dup");
    pf_useful_ = stats->counter(p.name + ".pf_useful");
    pf_useless_ = stats->counter(p.name + ".pf_useless");
    pf_late_ = stats->counter(p.name + ".pf_late");
    writebacks_ = stats->counter(p.name + ".writebacks");
    spec_delayed_issued_ = stats->counter(p.name + ".spec_delayed_issued");
    const char *lvl[] = {"l1d", "l2c", "llc", "dram"};
    for (int i = 0; i < 4; ++i) {
        pf_useful_from_[i]
            = stats->counter(p.name + ".pf_useful_from_" + lvl[i]);
        pf_useless_from_[i]
            = stats->counter(p.name + ".pf_useless_from_" + lvl[i]);
    }

    // Reserve every queue to its structural bound so the per-cycle loop
    // never allocates in steady state (fills_ is bounded by outstanding
    // misses, which the MSHR count caps).
    rq_.reserve(p.rq_size);
    wq_.reserve(p.wq_size);
    pq_.reserve(p.pq_size);
    fills_.reserve(p.mshrs);
    spec_delay_.reserve(p.rq_size);
    mshrs_.reserve(p.mshrs);
    cand_buf_.reserve(32);
}

std::uint64_t
Cache::storageBits() const
{
    // Data + tag (assume 40-bit physical tags) + state bits per block.
    return static_cast<std::uint64_t>(params_.sets) * params_.ways
        * (kBlockSize * 8 + 40 + 4);
}

// Everything below runs on the per-cycle path (tick, queue processing,
// fills, prefetcher notification). tlpsim-audit's hotpath check bans
// allocation and unwaived container growth here; test_hotpath_alloc
// checks the same dynamically.
// tlpsim:hot

Cache::Block *
Cache::lookup(Addr paddr, bool update_lru)
{
    Addr block = blockNumber(paddr);
    std::size_t set = block & (params_.sets - 1);
    const Addr *tbase = &tags_[set * params_.ways];
    const int w = findWay(tbase, params_.ways, block);
    if (w < 0)
        return nullptr;
    if (update_lru)
        lru_[set * params_.ways + static_cast<unsigned>(w)] = ++lru_clock_;
    return &blocks_[set * params_.ways + static_cast<unsigned>(w)];
}

Cache::Mshr *
Cache::findMshr(Addr paddr)
{
    Addr block = blockNumber(paddr);
    for (auto &m : mshrs_) {
        if (m.block == block)
            return &m;
    }
    return nullptr;
}

bool
Cache::probe(Addr paddr) const
{
    Addr block = blockNumber(paddr);
    std::size_t set = block & (params_.sets - 1);
    return findWay(&tags_[set * params_.ways], params_.ways, block) >= 0;
}

bool
Cache::sendRead(const Packet &pkt)
{
    if (rq_.size() >= params_.rq_size) {
        noteRefusal();
        return false;
    }
    const Cycle ready = pkt.birth + params_.latency;
    rq_.push_back({pkt, ready});   // tlpsim:waive(hotpath) Ring, reserved
    next_ready_ = std::min(next_ready_, ready);
    return true;
}

bool
Cache::sendWrite(const Packet &pkt)
{
    if (wq_.size() >= params_.wq_size) {
        noteRefusal();
        return false;
    }
    const Cycle ready = pkt.birth + params_.latency;
    wq_.push_back({pkt, ready});   // tlpsim:waive(hotpath) Ring, reserved
    next_ready_ = std::min(next_ready_, ready);
    return true;
}

bool
Cache::sendPrefetch(const Packet &pkt)
{
    if (pq_.size() >= params_.pq_size) {
        noteRefusal();
        return false;
    }
    const Cycle ready = pkt.birth + params_.latency;
    pq_.push_back({pkt, ready});   // tlpsim:waive(hotpath) Ring, reserved
    next_ready_ = std::min(next_ready_, ready);
    return true;
}

void
Cache::memReturn(const Packet &pkt)
{
    fills_.push_back({pkt, pkt.birth});   // tlpsim:waive(hotpath) Ring, reserved
    next_ready_ = 0;   // fills are processed on the very next tick
}

void
Cache::respond(Packet pkt, MemLevel served_by)
{
    pkt.served_by = served_by;
    if (pkt.requestor != nullptr)
        pkt.requestor->memReturn(pkt);
}

void
Cache::countAccess(AccessType type, bool hit)
{
    (hit ? hit_ : miss_)[static_cast<int>(type)]->add();
}

void
Cache::classifyEviction(Addr tag, const Block &blk)
{
    if (tag == kNoTag)
        return;
    if (blk.prefetched) {
        pf_useless_->add();
        pf_useless_from_[levelIndex(blk.pf_served_from)]->add();
        if (params_.filter != nullptr)
            params_.filter->onPrefetchedEvictUnused(tag << kBlockBits);
    }
}

bool
Cache::install(const Packet &pkt, Cycle now)
{
    // Prefetches only allocate at levels at or above their fill level
    // (level_num >= fill_level); pass-through fills skip installation.
    if (pkt.type == AccessType::Prefetch
        && params_.level_num < pkt.fill_level) {
        return true;
    }

    // Victim: first invalid way, else LRU.
    const std::size_t set = blockNumber(pkt.paddr) & (params_.sets - 1);
    Addr *tbase = &tags_[set * params_.ways];
    std::uint64_t *lbase = &lru_[set * params_.ways];
    unsigned victim = 0;
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (tbase[w] == kNoTag) {
            victim = w;
            break;
        }
        if (lbase[w] < lbase[victim])
            victim = w;
    }

    Block &vb = blocks_[set * params_.ways + victim];
    const Addr vtag = tbase[victim];
    if (vtag != kNoTag && vb.dirty) {
        Packet wb;
        wb.paddr = vtag << kBlockBits;
        wb.vaddr = wb.paddr;
        wb.type = AccessType::Writeback;
        wb.core = pkt.core;
        wb.birth = now;
        if (!lower_->sendWrite(wb))
            return false;   // retry when the lower write queue drains
        writebacks_->add();
    }
    classifyEviction(vtag, vb);

    tbase[victim] = blockNumber(pkt.paddr);
    vb.dirty = false;
    vb.prefetched = false;
    vb.pf_served_from = MemLevel::None;
    lbase[victim] = ++lru_clock_;
    return true;
}

void
Cache::processFills(Cycle now)
{
    while (!fills_.empty()) {
        const Packet &fill = fills_.front().pkt;
        Mshr *mshr = findMshr(fill.paddr);

        // Install unless this is a pass-through prefetch fill.
        bool demand_merged = mshr != nullptr && mshr->demand_merged;
        Packet to_install = fill;
        if (demand_merged)
            to_install.type = AccessType::Load;   // promoted: always allocate
        if (!install(to_install, now))
            return;   // blocked on lower WQ until it frees room

        if (mshr == nullptr) {
            // Fire-and-forget fill (pass-through prefetch): nothing to wake.
            fills_.pop_front();
            continue;
        }

        Block *blk = lookup(fill.paddr, false);
        bool was_prefetch = mshr->type == AccessType::Prefetch;
        if (blk != nullptr && was_prefetch && !mshr->demand_merged) {
            blk->prefetched = true;
            blk->pf_served_from = fill.served_by;
        }
        if (was_prefetch && mshr->demand_merged) {
            // Late prefetch: a demand arrived while it was in flight.
            pf_late_->add();
            pf_useful_->add();
            pf_useful_from_[levelIndex(fill.served_by)]->add();
        }
        if (blk != nullptr && mshr->dirty_on_fill)
            blk->dirty = true;

        if (was_prefetch && params_.filter != nullptr
            && mshr->primary.pred_meta.valid) {
            Packet done = mshr->primary;
            done.served_by = fill.served_by;
            params_.filter->onPrefetchFill(done);
        }
        if (!was_prefetch && params_.prefetcher != nullptr
            && mshr->primary.isDemand()) {
            params_.prefetcher->onFill(mshr->primary.vaddr, mshr->primary.ip,
                                       fill.served_by,
                                       now - mshr->primary.birth);
        }

        if (mshr->primary.requestor != nullptr)
            respond(mshr->primary, fill.served_by);
        for (auto &w : mshr->waiters)
            respond(w, fill.served_by);

        // Swap-remove the MSHR, but keep its waiter vector's capacity in
        // the pool — MSHR turnover is steady-state and must not free.
        waiter_pool_.give(std::move(mshr->waiters));
        if (mshr != &mshrs_.back())
            *mshr = std::move(mshrs_.back());
        mshrs_.pop_back();
        fills_.pop_front();
    }
}

void
Cache::notifyPrefetcher(const Packet &pkt, bool hit, bool prefetch_hit,
                        Cycle now)
{
    if (params_.prefetcher == nullptr)
        return;
    PrefetchTrigger trig;
    trig.vaddr = pkt.vaddr;
    trig.paddr = pkt.paddr;
    trig.ip = pkt.ip;
    trig.type = pkt.type;
    trig.cache_hit = hit;
    trig.prefetch_hit = prefetch_hit;
    trig.offchip_pred = pkt.offchip_pred;
    trig.core = pkt.core;
    trig.now = now;

    cand_buf_.clear();
    params_.prefetcher->onAccess(trig, cand_buf_);

    for (const auto &cand : cand_buf_) {
        Addr pf_vaddr = cand.addr;
        Addr pf_paddr = params_.translator != nullptr
            ? params_.translator->translate(pkt.core, pf_vaddr)
            : pf_vaddr;
        std::uint8_t fill_level = cand.fill_level;
        PredictionMeta meta;
        if (params_.filter != nullptr
            && !params_.filter->allow(trig, pf_vaddr, pf_paddr,
                                      cand.metadata, fill_level, meta)) {
            pf_filtered_->add();
            continue;
        }
        if (pq_.size() >= params_.pq_size) {
            pf_dropped_queue_->add();
            continue;
        }
        Packet pf;
        pf.vaddr = blockAlign(pf_vaddr);
        pf.paddr = blockAlign(pf_paddr);
        pf.ip = pkt.ip;
        pf.type = AccessType::Prefetch;
        pf.core = pkt.core;
        pf.fill_level = fill_level;
        pf.pf_metadata = cand.metadata;
        pf.pred_meta = meta;
        pf.birth = now;
        pq_.push_back({pf, now + 1});   // tlpsim:waive(hotpath) Ring, reserved
        pf_issued_->add();
    }
}

bool
Cache::forwardMiss(const Packet &pkt, Cycle now)
{
    if (mshrs_.size() >= params_.mshrs)
        return false;
    Packet fwd = pkt;
    fwd.requestor = this;
    fwd.req_id = blockNumber(pkt.paddr);
    fwd.birth = now;
    return pkt.type == AccessType::Prefetch ? lower_->sendPrefetch(fwd)
                                            : lower_->sendRead(fwd);
}

void
Cache::allocateMshr(const Packet &pkt, bool dirty_on_fill)
{
    Mshr mshr;
    mshr.block = blockNumber(pkt.paddr);
    mshr.type = pkt.type;
    mshr.dirty_on_fill = dirty_on_fill;
    mshr.primary = pkt;
    mshr.waiters = waiter_pool_.take();
    mshrs_.push_back(std::move(mshr));   // tlpsim:waive(hotpath) reserved mshrs
}

bool
Cache::processRead(TimedPacket &entry, Cycle now)
{
    Packet &pkt = entry.pkt;
    Block *blk = lookup(pkt.paddr, true);

    if (blk != nullptr) {
        countAccess(pkt.type, true);
        bool prefetch_hit = blk->prefetched;
        if (pkt.isDemand() && blk->prefetched) {
            blk->prefetched = false;
            pf_useful_->add();
            pf_useful_from_[levelIndex(blk->pf_served_from)]->add();
            if (params_.filter != nullptr)
                params_.filter->onDemandHitPrefetched(pkt.paddr, pkt.ip);
        }
        if (pkt.isDemand())
            notifyPrefetcher(pkt, true, prefetch_hit, now);
        respond(pkt, params_.level);
        return true;
    }

    // A miss is accepted by merging into an outstanding MSHR, or with a
    // free MSHR plus room below; a refusal returns before any effect.
    Mshr *mshr = findMshr(pkt.paddr);
    if (mshr == nullptr && !forwardMiss(pkt, now))
        return false;

    countAccess(pkt.type, false);

    // FLP selective delay: the prediction was deferred to L1D-miss time.
    if (pkt.type == AccessType::Load && pkt.delayed_offchip_flag
        && params_.spec_dram != nullptr) {
        Packet spec = pkt;
        spec.spec_dram = true;
        spec.delayed_offchip_flag = false;
        spec.birth = now + params_.spec_latency;
        spec_delay_.push_back({spec, spec.birth});   // tlpsim:waive(hotpath) Ring, reserved
        spec_delayed_issued_->add();
        if (params_.spec_observer != nullptr)
            params_.spec_observer->onSpecIssued(spec);
    }

    if (mshr != nullptr) {
        if (pkt.isDemand() && mshr->type == AccessType::Prefetch)
            mshr->demand_merged = true;
        mshr->waiters.push_back(pkt);   // tlpsim:waive(hotpath) pooled
        mshr_merge_->add();
    } else {
        allocateMshr(pkt, false);
    }

    if (pkt.isDemand()) {
        notifyPrefetcher(pkt, false, false, now);
        if (params_.filter != nullptr)
            params_.filter->onDemandMiss(pkt.paddr, pkt.ip);
    }
    return true;
}

bool
Cache::processWrite(TimedPacket &entry, Cycle now)
{
    Packet &pkt = entry.pkt;
    Block *blk = lookup(pkt.paddr, true);

    if (blk != nullptr) {
        countAccess(pkt.type, true);
        if (pkt.isDemand() && blk->prefetched) {
            blk->prefetched = false;
            pf_useful_->add();
            pf_useful_from_[levelIndex(blk->pf_served_from)]->add();
            if (params_.filter != nullptr)
                params_.filter->onDemandHitPrefetched(pkt.paddr, pkt.ip);
        }
        blk->dirty = true;
        if (pkt.isDemand())
            notifyPrefetcher(pkt, true, false, now);
        return true;
    }

    if (pkt.type == AccessType::Writeback) {
        // Writeback miss: allocate directly, no downstream fetch.
        Packet inst = pkt;
        inst.type = AccessType::Load;   // force allocation at this level
        if (!install(inst, now))
            return false;
        countAccess(pkt.type, false);
        Block *nb = lookup(pkt.paddr, false);
        nb->dirty = true;
        return true;
    }

    // Store (RFO) miss at L1D: fetch the line, dirty it on fill. As for
    // reads, acceptance (merge, or MSHR plus room below) comes first.
    assert(pkt.type == AccessType::Rfo);
    Mshr *mshr = findMshr(pkt.paddr);
    if (mshr == nullptr && !forwardMiss(pkt, now))
        return false;

    countAccess(pkt.type, false);
    if (mshr != nullptr) {
        mshr->dirty_on_fill = true;
        if (mshr->type == AccessType::Prefetch)
            mshr->demand_merged = true;
        mshr->waiters.push_back(pkt);   // tlpsim:waive(hotpath) pooled
        mshr_merge_->add();
        notifyPrefetcher(pkt, false, false, now);
        return true;
    }

    allocateMshr(pkt, true);
    notifyPrefetcher(pkt, false, false, now);
    if (params_.filter != nullptr)
        params_.filter->onDemandMiss(pkt.paddr, pkt.ip);
    return true;
}

bool
Cache::processPrefetch(TimedPacket &entry, Cycle now)
{
    Packet &pkt = entry.pkt;

    // Pass-through prefetch (fills a deeper level only).
    if (params_.level_num < pkt.fill_level) {
        if (lookup(pkt.paddr, false) != nullptr) {
            pf_dup_->add();
            return true;
        }
        Packet fwd = pkt;
        fwd.birth = now;
        return lower_->sendPrefetch(fwd);
    }

    // Settle acceptance first: a hit, a merge into an outstanding MSHR,
    // or a free MSHR plus room below.
    Block *blk = lookup(pkt.paddr, true);
    Mshr *mshr = blk == nullptr ? findMshr(pkt.paddr) : nullptr;
    if (blk == nullptr && mshr == nullptr && !forwardMiss(pkt, now))
        return false;

    // Prefetches arriving from the level above act as training accesses
    // for this level's prefetcher (ChampSim semantics): this is how SPP
    // at L2 runs ahead of the L1D prefetch stream.
    if (pkt.requestor != nullptr)
        notifyPrefetcher(pkt, blk != nullptr, false, now);
    if (blk != nullptr) {
        countAccess(AccessType::Prefetch, true);
        if (pkt.requestor != nullptr)
            respond(pkt, params_.level);
        else
            pf_dup_->add();
        return true;
    }
    countAccess(AccessType::Prefetch, false);

    if (mshr != nullptr) {
        if (pkt.requestor != nullptr) {
            mshr->waiters.push_back(pkt);   // tlpsim:waive(hotpath) pooled
            mshr_merge_->add();
        } else {
            pf_dup_->add();
        }
        return true;
    }

    allocateMshr(pkt, false);
    return true;
}

void
Cache::flushSpecDelay(Cycle now)
{
    while (!spec_delay_.empty() && spec_delay_.front().ready_at <= now) {
        params_.spec_dram->sendRead(spec_delay_.front().pkt);
        spec_delay_.pop_front();
    }
}

Cycle
Cache::computeNextReady(Cycle now, bool progressed) const
{
    // A queue front that is due but stayed either ran out of this
    // cycle's lookup budget or was refused, and a fill still pending had
    // its install refused by a full lower write queue. After a tick that
    // moved something, any of them may go next cycle. After a tick that
    // moved nothing, every one was refused, and retrying changes no
    // state: they sleep until a fill arrives (memReturn), a request
    // arrives (send*), or the level below frees room (wake).
    const Cycle retry = progressed ? now + 1 : kCycleNever;
    Cycle e = fills_.empty() ? kCycleNever : retry;
    if (!spec_delay_.empty())
        e = std::min(e, std::max(spec_delay_.front().ready_at, now + 1));
    for (const Ring<TimedPacket> *q : {&rq_, &wq_, &pq_}) {
        if (!q->empty()) {
            const Cycle ready = q->front().ready_at;
            e = std::min(e, ready > now ? ready : retry);
        }
    }
    return e;
}

void
Cache::tick(Cycle now)
{
    if (now < next_ready_)
        return;   // quiet cycle: nothing due yet
    const std::size_t fills_pending = fills_.size();
    processFills(now);
    const bool filled = fills_.size() != fills_pending;
    if (!spec_delay_.empty())
        flushSpecDelay(now);

    unsigned budget = params_.lookups_per_cycle;
    while (budget > 0 && !rq_.empty() && rq_.front().ready_at <= now) {
        if (!processRead(rq_.front(), now))
            break;
        rq_.pop_front();
        --budget;
    }
    while (budget > 0 && !wq_.empty() && wq_.front().ready_at <= now) {
        if (!processWrite(wq_.front(), now))
            break;
        wq_.pop_front();
        --budget;
    }
    while (budget > 0 && !pq_.empty() && pq_.front().ready_at <= now) {
        if (!processPrefetch(pq_.front(), now))
            break;
        pq_.pop_front();
        --budget;
    }

    // Every accepted request freed a queue entry.
    const bool accepted = budget != params_.lookups_per_cycle;
    if (accepted)
        wakeSenders(now);
    next_ready_ = computeNextReady(now, filled || accepted);
}

// tlpsim:endhot

} // namespace tlpsim
