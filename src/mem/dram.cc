#include "mem/dram.hh"

#include <algorithm>
#include <cassert>

#include "common/bitops.hh"

namespace tlpsim
{

DramController::DramController(const Params &p, StatGroup *stats)
    : params_(p), waiter_pool_(std::size_t{p.rq_size} + 8), banks_(p.banks),
      spec_buffer_(p.num_cores,
                   std::vector<SpecLine>(p.spec_buffer_entries)),
      txn_(stats->counter(p.name + ".transactions")),
      reads_(stats->counter(p.name + ".reads")),
      writes_(stats->counter(p.name + ".writes")),
      row_hits_(stats->counter(p.name + ".row_hit")),
      row_misses_(stats->counter(p.name + ".row_miss")),
      spec_issued_(stats->counter(p.name + ".spec_issued")),
      spec_consumed_(stats->counter(p.name + ".spec_consumed")),
      spec_merged_inflight_(stats->counter(p.name + ".spec_merged_inflight")),
      spec_wasted_(stats->counter(p.name + ".spec_wasted")),
      spec_dropped_full_(stats->counter(p.name + ".spec_dropped_full")),
      rq_merges_(stats->counter(p.name + ".rq_merges"))
{
    assert(isPowerOfTwo(p.banks));
    assert(isPowerOfTwo(p.blocks_per_row));
    bank_shift_ = log2i(p.blocks_per_row);
    row_shift_ = bank_shift_ + log2i(p.banks);
    read_q_.reserve(p.rq_size);
    write_q_.reserve(p.wq_size);
    in_flight_.reserve(p.rq_size);
}

// Everything below runs on the per-cycle path. tlpsim-audit's hotpath
// check bans allocation and unwaived container growth here;
// tests/test_hotpath_alloc.cpp checks the same dynamically.
// tlpsim:hot

unsigned
DramController::bankOf(Addr paddr) const
{
    // column (low) | bank | row (high): an 8 KiB stream stays in one row.
    return static_cast<unsigned>(
        (blockNumber(paddr) >> bank_shift_) & (params_.banks - 1));
}

Addr
DramController::rowOf(Addr paddr) const
{
    return blockNumber(paddr) >> row_shift_;
}

DramController::SpecLine *
DramController::findSpecLine(std::uint8_t core, Addr block)
{
    for (auto &line : spec_buffer_[core]) {
        if (line.valid && line.block == block)
            return &line;
    }
    return nullptr;
}

DramController::SpecLine *
DramController::allocSpecLine(std::uint8_t core, Addr block, Cycle now)
{
    auto &buf = spec_buffer_[core];
    SpecLine *victim = nullptr;
    for (auto &line : buf) {
        if (!line.valid)
            return &(line = SpecLine{block, false, true, now});
        // Only completed-and-unconsumed lines can be replaced.
        if (line.ready && (victim == nullptr
                           || line.fetched_at < victim->fetched_at)) {
            victim = &line;
        }
    }
    if (victim == nullptr)
        return nullptr;   // all entries still in flight
    spec_wasted_->add();  // evicting a fetched line no demand ever used
    *victim = SpecLine{block, false, true, now};
    return victim;
}

bool
DramController::sendRead(const Packet &pkt)
{
    Addr block = blockNumber(pkt.paddr);

    if (pkt.spec_dram) {
        // Hermes/FLP speculative fetch.
        if (findSpecLine(pkt.core, block) != nullptr)
            return true;   // already fetched or in flight: coalesce
        if (read_q_.size() >= params_.rq_size) {
            spec_dropped_full_->add();
            return true;   // speculation is best-effort: drop, don't stall
        }
        SpecLine *line = allocSpecLine(pkt.core, block, pkt.birth);
        if (line == nullptr) {
            spec_dropped_full_->add();
            return true;
        }
        spec_issued_->add();
        read_q_.push_back(   // tlpsim:waive(hotpath) reserved rq_size
            {pkt, pkt.birth, waiter_pool_.take()});
        sched_quiet_until_ = 0;   // new entry: its bank may be idle
        next_tick_ = 0;
        return true;
    }

    // Demand/prefetch/translation read: try the speculative buffer first.
    if (pkt.isDemand()) {
        if (SpecLine *line = findSpecLine(pkt.core, block)) {
            if (line->ready) {
                // Line already fetched by the speculative request: serve
                // from the buffer, no new DRAM transaction.
                line->valid = false;
                spec_consumed_->add();
                Packet resp = pkt;
                resp.served_by = MemLevel::Dram;
                if (resp.requestor != nullptr)
                    resp.requestor->memReturn(resp);
                return true;
            }
            // In flight: ride along with the speculative access.
            for (auto &e : read_q_) {
                if (e.pkt.spec_dram && e.pkt.core == pkt.core
                    && blockNumber(e.pkt.paddr) == block) {
                    e.waiters.push_back(pkt);   // tlpsim:waive(hotpath) pooled
                    spec_merged_inflight_->add();
                    return true;
                }
            }
            for (auto &f : in_flight_) {
                if (f.entry.pkt.spec_dram && f.entry.pkt.core == pkt.core
                    && blockNumber(f.entry.pkt.paddr) == block) {
                    f.entry.waiters.push_back(pkt);   // tlpsim:waive(hotpath) pooled
                    spec_merged_inflight_->add();
                    return true;
                }
            }
            // Buffer said in-flight but the access is gone (shouldn't
            // happen); fall through to a regular access.
            line->valid = false;
        }
    }

    // Merge with a same-block read already queued (cross-core sharing is
    // impossible in multiprogrammed mode, but same-core LLC miss + spec
    // races are).
    for (auto &e : read_q_) {
        if (!e.pkt.spec_dram && blockNumber(e.pkt.paddr) == block
            && e.pkt.core == pkt.core) {
            e.waiters.push_back(pkt);   // tlpsim:waive(hotpath) pooled
            rq_merges_->add();
            return true;
        }
    }

    if (read_q_.size() >= params_.rq_size) {
        noteRefusal();
        return false;
    }
    read_q_.push_back(   // tlpsim:waive(hotpath) reserved rq_size
        {pkt, pkt.birth, waiter_pool_.take()});
    sched_quiet_until_ = 0;   // new entry: its bank may be idle
    next_tick_ = 0;
    return true;
}

bool
DramController::sendWrite(const Packet &pkt)
{
    if (write_q_.size() >= params_.wq_size) {
        noteRefusal();
        return false;
    }
    // Writes complete silently and never collect waiters, so the empty
    // vector here never allocates.
    write_q_.push_back({pkt, pkt.birth, {}});   // tlpsim:waive(hotpath) reserved
    sched_quiet_until_ = 0;   // new entry: its bank may be idle
    next_tick_ = 0;
    return true;
}

Cycle
DramController::scheduleOne(Cycle now, std::vector<QueueEntry> &queue,
                            bool is_write)
{
    if (queue.empty())
        return kCycleNever;

    // FR-FCFS: oldest row-buffer hit whose bank is ready; else the oldest
    // request with a ready bank.
    std::size_t pick = queue.size();
    Cycle bank_horizon = kCycleNever;
    for (std::size_t i = 0; i < queue.size(); ++i) {
        const Bank &bank = banks_[bankOf(queue[i].pkt.paddr)];
        if (bank.ready_at > now) {
            bank_horizon = std::min(bank_horizon, bank.ready_at);
            continue;
        }
        if (bank.open_row == rowOf(queue[i].pkt.paddr)) {
            pick = i;
            break;
        }
        if (pick == queue.size())
            pick = i;
    }
    if (pick == queue.size())
        return bank_horizon;

    QueueEntry entry = std::move(queue[pick]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
    wakeSenders(now);   // a queue entry freed

    Bank &bank = banks_[bankOf(entry.pkt.paddr)];
    Addr row = rowOf(entry.pkt.paddr);
    Cycle access_lat;
    bool row_hit = bank.open_row == row;
    if (row_hit) {
        access_lat = params_.t_cas;
        row_hits_->add();
    } else {
        access_lat = params_.t_rp + params_.t_rcd + params_.t_cas;
        row_misses_->add();
        bank.open_row = row;
    }

    Cycle data_start = std::max(now + access_lat, bus_free_at_);
    Cycle done = data_start + params_.burst_cycles;
    bus_free_at_ = done;
    // Row hits pipeline column accesses at the burst rate (tCCD-style);
    // a row conflict occupies the bank until the transfer completes.
    bank.ready_at = row_hit ? now + params_.burst_cycles : done;

    txn_->add();
    if (is_write) {
        writes_->add();
        return kCycleNever;   // writes complete silently
    }
    reads_->add();
    in_flight_.push_back(   // tlpsim:waive(hotpath) reserved rq_size
        {std::move(entry), done});
    next_done_ = std::min(next_done_, done);
    return kCycleNever;
}

void
DramController::completeReads(Cycle now)
{
    if (now < next_done_)
        return;   // nothing in flight completes this cycle

    Cycle next = kCycleNever;
    for (std::size_t i = 0; i < in_flight_.size();) {
        if (in_flight_[i].done > now) {
            next = std::min(next, in_flight_[i].done);
            ++i;
            continue;
        }
        InFlight f = std::move(in_flight_[i]);
        in_flight_[i] = std::move(in_flight_.back());
        in_flight_.pop_back();

        Packet &p = f.entry.pkt;
        if (p.spec_dram) {
            if (SpecLine *line
                = findSpecLine(p.core, blockNumber(p.paddr))) {
                line->ready = true;
            }
        }
        p.served_by = MemLevel::Dram;
        if (p.requestor != nullptr)
            p.requestor->memReturn(p);
        for (Packet &w : f.entry.waiters) {
            w.served_by = MemLevel::Dram;
            if (w.requestor != nullptr)
                w.requestor->memReturn(w);
            // A demand waiter on a speculative access consumed the line.
            if (p.spec_dram) {
                if (SpecLine *line
                    = findSpecLine(p.core, blockNumber(p.paddr))) {
                    line->valid = false;
                    spec_consumed_->add();
                }
            }
        }
        // Keep the waiter vector's capacity for the next read entry.
        waiter_pool_.give(std::move(f.entry.waiters));
    }
    next_done_ = next;
}

void
DramController::tick(Cycle now)
{
    completeReads(now);

    // Issue gating: allow at most one data burst to be reserved beyond
    // the current one. This keeps CAS/burst pipelining (row hits stream
    // at the bus rate) while bounding how far reservations — and the
    // in-flight list — can run ahead of the clock.
    if (bus_free_at_ > now + params_.t_cas + params_.burst_cycles) {
        next_tick_ = computeNextTick(now);
        return;
    }

    if (now < sched_quiet_until_) {
        next_tick_ = computeNextTick(now);
        return;   // every queued request's bank is still busy
    }

    // Write-drain policy: start draining when the write queue is nearly
    // full or there is nothing else to do; stop once mostly drained.
    if (draining_writes_) {
        if (write_q_.size() <= params_.wq_size / 4)
            draining_writes_ = false;
    } else if (write_q_.size() >= (params_.wq_size * 7) / 8
               || (read_q_.empty() && !write_q_.empty())) {
        draining_writes_ = true;
    }

    Cycle horizon;
    if (draining_writes_ && !write_q_.empty())
        horizon = scheduleOne(now, write_q_, true);
    else
        horizon = scheduleOne(now, read_q_, false);
    // A fruitless scan's bank horizon quiets the scheduler until then;
    // an issue (or empty queue) re-scans next tick (kCycleNever would
    // wedge an empty queue closed, so clamp to "no window").
    sched_quiet_until_ = horizon == kCycleNever ? 0 : horizon;
    next_tick_ = computeNextTick(now);
}

Cycle
DramController::computeNextTick(Cycle now) const
{
    // Mirrors tick()'s early exits using only maintained watermarks (no
    // queue scans): before this cycle a tick would complete nothing
    // (next_done_), and the scheduler is fenced by the bus gate and by
    // sched_quiet_until_'s all-banks-busy window. Enqueues drop
    // next_tick_ to 0, so a new entry is never fenced out.
    Cycle e = in_flight_.empty() ? kCycleNever
                                 : std::max(next_done_, now + 1);
    if (!read_q_.empty() || !write_q_.empty()) {
        const Cycle headroom = params_.t_cas + params_.burst_cycles;
        const Cycle gate = bus_free_at_ > now + headroom
            ? bus_free_at_ - headroom
            : now + 1;
        const Cycle sched = std::max(gate,
                                     std::max(sched_quiet_until_, now + 1));
        e = std::min(e, sched);
    }
    return e;
}

Cycle
DramController::nextEventCycle(Cycle now) const
{
    // Exactly the tickIfDue() watermark — the first cycle a *full* tick
    // (one that reaches the drain-policy update and the scheduler) runs.
    // It is tempting to bound tighter, e.g. by the queue's bank-ready
    // horizon: that is wrong, because draining_writes_ is hysteresis
    // with memory, and with an empty read queue and a small write queue
    // consecutive full ticks oscillate it (start-drain's "nothing else
    // to do" vs stop-drain's "mostly drained"). The flag value when a
    // bank finally frees — and hence the issue cycle — depends on the
    // parity of full ticks since the last enqueue, so an idle skip may
    // never jump past one: it would change scheduling outcomes, and
    // skip-on/skip-off runs must stay bit-identical.
    return computeNextTick(now);
}

bool
DramController::specBufferHolds(std::uint8_t core, Addr paddr) const
{
    for (const auto &line : spec_buffer_[core]) {
        if (line.valid && line.ready && line.block == blockNumber(paddr))
            return true;
    }
    return false;
}

// tlpsim:endhot

} // namespace tlpsim
