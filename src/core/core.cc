#include "core/core.hh"

#include <algorithm>
#include <cassert>

#include "mem/dram.hh"

namespace tlpsim
{

namespace
{

/** Word-granularity key for the store-forwarding table. */
std::uint64_t
wordKey(Addr vaddr)
{
    return static_cast<std::uint64_t>(vaddr) >> 3;
}

} // namespace

Core::Core(const Params &p, const Ports &ports, StatGroup *stats)
    : params_(p), ports_(ports),
      bpred_({8, 1024, 20, p.name + ".bpred"}, stats),
      rob_size_(p.rob_size), regs_(kNumRegs),
      instrs_(stats->counter(p.name + ".instrs")),
      loads_(stats->counter(p.name + ".loads")),
      stores_(stats->counter(p.name + ".stores")),
      branches_(stats->counter(p.name + ".branches")),
      ifetch_stalls_(stats->counter(p.name + ".ifetch_stalls")),
      rob_full_(stats->counter(p.name + ".rob_full")),
      fwd_loads_(stats->counter(p.name + ".forwarded_loads")),
      walks_(stats->counter(p.name + ".page_walks")),
      spec_from_core_(stats->counter(p.name + ".spec_from_core"))
{
    rob_ip_.assign(rob_size_, 0);
    rob_ld_vaddr_.assign(rob_size_, 0);
    rob_st_vaddr_.assign(rob_size_, 0);
    rob_dst_.assign(rob_size_, kNoReg);
    rob_unresolved_.assign(rob_size_, 0);
    rob_is_load_.assign(rob_size_, 0);
    rob_is_store_.assign(rob_size_, 0);
    rob_mispred_.assign(rob_size_, 0);
    rob_state_.assign(rob_size_, State::WaitOps);
    rob_ready_.assign(rob_size_, 0);
    rob_done_.assign(rob_size_, 0);
    rob_serial_.assign(rob_size_, 0);
    rob_load_id_.assign(rob_size_, 0);
    dep_head_.assign(rob_size_, -1);
    dep_tail_.assign(rob_size_, -1);
    dep_next_.assign(rob_size_ * 2, -1);
    issue_list_.reserve(p.lq_size);
    // Size every in-flight structure to its structural bound up front —
    // the per-cycle loop below never allocates once these are warm.
    // inflight_loads_ entries can outlive retirement (a spec-completed
    // load retires while its demand read is still in flight), so its
    // bound is a deliberate multiple of the LQ depth, enforced by an
    // issue stall in issueOneLoad().
    inflight_load_cap_ = static_cast<std::size_t>(p.lq_size) * 4;
    inflight_loads_.init(inflight_load_cap_);
    walk_inflight_.init(p.lq_size);
    pending_store_words_.init(p.sq_size);
    walk_next_.assign(p.rob_size, -1);
    walk_serial_.assign(p.rob_size, 0);
    spec_delay_.reserve(p.lq_size);
}

// Everything below runs once per simulated cycle (or per instruction /
// memory response within one). tlpsim-audit's hotpath check enforces that
// no allocation, std::function, or unwaived container growth appears here;
// tests/test_hotpath_alloc.cpp checks the same dynamically.
// tlpsim:hot

bool
Core::fetchBlocked(Cycle now) const
{
    return fetch_block_tokens_ > 0 || now < fetch_stall_until_;
}

void
Core::tick(Cycle now)
{
    now_ = now;
    retire(now);
    issueLoads(now);
    if (!spec_delay_.empty())
        flushSpecDelay(now);
    fetchAndDispatch(now);
}

Cycle
Core::nextEventCycle(Cycle now)
{
    Cycle ev = kCycleNever;
    // Retire: the head entry can act only once Done, at its done cycle.
    // A head that is already past-due (exhausted retire width) must keep
    // retrying every cycle. A store the L1D refused waits for its wake.
    if (rob_head_ != rob_tail_ && !store_blocked_) {
        const std::uint32_t head = robIndex(rob_head_);
        if (rob_state_[head] == State::Done)
            ev = std::min(ev, std::max(rob_done_[head], now + 1));
    }
    // Loads waiting to issue act at their operand-ready cycle; one that
    // stayed blocked this tick (port/cap/queue-full) retries next cycle.
    for (std::uint32_t slot : issue_list_) {
        if (rob_state_[slot] == State::WaitIssue)
            ev = std::min(ev, std::max(rob_ready_[slot], now + 1));
    }
    if (!spec_delay_.empty())
        ev = std::min(ev, std::max(spec_delay_.front().first, now + 1));
    // Fetch: mirror fetchAndDispatch()'s break conditions. Waiting on an
    // L1I fill and ROB-full are pure per-cycle counter bumps until an
    // external event — replayed by onCyclesSkipped(), no event here.
    // A blocked-branch token clears when the branch completes (covered
    // by the issue/retire/response events above).
    if (!ifetch_.waiting) {
        if (fetch_retry_) {
            ev = now + 1;   // failed L1I send: retries (and counts) per cycle
        } else if (fetch_block_tokens_ == 0) {
            if (now < fetch_stall_until_) {
                ev = std::min(ev, fetch_stall_until_);
            } else if (!robFull()) {
                const TraceInstr &peeked = ports_.trace->peek();
                const bool lq_block =
                    peeked.isLoad() && loads_in_flight_ >= params_.lq_size;
                const bool sq_block =
                    peeked.isStore() && stores_in_flight_ >= params_.sq_size;
                if (!lq_block && !sq_block)
                    ev = now + 1;   // fetch can make progress next cycle
            }
        }
    }
    return ev;
}

void
Core::onCyclesSkipped(Cycle delta)
{
    // Replay the counters fetchAndDispatch() bumps on every quiescent
    // cycle, in the same priority order as its early exits. The other
    // no-counter exits (blocked branch, mispredict stall window, LQ/SQ
    // peek block) skip silently. Valid only when nextEventCycle() had no
    // event inside the window, which pins these conditions across it.
    if (ifetch_.waiting) {
        ifetch_stalls_->add(delta);
        return;
    }
    if (fetch_block_tokens_ > 0 || now_ < fetch_stall_until_)
        return;
    if (robFull())
        rob_full_->add(delta);
}

void
Core::fetchAndDispatch(Cycle now)
{
    fetch_retry_ = false;
    if (ifetch_.waiting) {
        ifetch_stalls_->add();
        return;
    }
    for (unsigned f = 0; f < params_.fetch_width; ++f) {
        if (fetchBlocked(now))
            break;
        if (robFull()) {
            rob_full_->add();
            break;
        }
        const TraceInstr &peeked = ports_.trace->peek();
        if (peeked.isLoad() && loads_in_flight_ >= params_.lq_size)
            break;
        if (peeked.isStore() && stores_in_flight_ >= params_.sq_size)
            break;

        // Instruction fetch at cache-line granularity.
        Addr line = blockNumber(peeked.ip);
        if (line != ifetch_.last_line) {
            Addr ipa = ports_.page_table->translate(params_.id, peeked.ip);
            if (!ports_.l1i->probe(ipa)) {
                Packet p;
                p.vaddr = peeked.ip;
                p.paddr = ipa;
                p.ip = peeked.ip;
                p.type = AccessType::Load;
                p.core = static_cast<std::uint8_t>(params_.id);
                p.requestor = this;
                p.req_id = kIfetchReqId;
                p.birth = now;
                if (ports_.l1i->sendRead(p)) {
                    ifetch_.waiting = true;
                    ifetch_.last_line = line;
                } else {
                    fetch_retry_ = true;
                }
                ifetch_stalls_->add();
                break;
            }
            ifetch_.last_line = line;
        }

        TraceInstr instr = ports_.trace->next();
        dispatch(instr, now);
    }
}

void
Core::dispatch(const TraceInstr &instr, Cycle now)
{
    std::uint32_t slot = robIndex(rob_tail_++);
    rob_ip_[slot] = instr.ip;
    rob_ld_vaddr_[slot] = instr.ld_vaddr;
    rob_st_vaddr_[slot] = instr.st_vaddr;
    rob_dst_[slot] = instr.dst;
    rob_unresolved_[slot] = 0;
    rob_is_load_[slot] = instr.isLoad() ? 1 : 0;
    rob_is_store_[slot] = instr.isStore() ? 1 : 0;
    rob_mispred_[slot] = 0;
    rob_ready_[slot] = now + 1;
    rob_done_[slot] = 0;
    const std::uint64_t serial = next_serial_++;
    rob_serial_[slot] = serial;
    rob_load_id_[slot] = 0;
    dep_head_[slot] = -1;
    dep_tail_[slot] = -1;

    const RegId srcs[2] = {instr.src0, instr.src1};
    for (unsigned op = 0; op < 2; ++op) {
        const RegId r = srcs[op];
        if (r == kNoReg)
            continue;
        RegState &rs = regs_[r];
        if (rs.producer_slot >= 0
            && rob_serial_[static_cast<std::uint32_t>(rs.producer_slot)]
                   == rs.producer_serial) {
            addDependent(static_cast<std::uint32_t>(rs.producer_slot),
                         slot, op);
            ++rob_unresolved_[slot];
        } else {
            rob_ready_[slot] = std::max(rob_ready_[slot], rs.ready);
        }
    }
    if (instr.dst != kNoReg) {
        regs_[instr.dst] = {0, static_cast<std::int32_t>(slot), serial};
    }

    if (instr.branch == BranchKind::Conditional) {
        branches_->add();
        bool correct = bpred_.predictAndTrain(instr.ip, instr.taken);
        if (!correct) {
            rob_mispred_[slot] = 1;
            ++fetch_block_tokens_;   // released when the branch resolves
        }
    }
    if (rob_is_load_[slot] != 0) {
        loads_->add();
        ++loads_in_flight_;
        rob_load_id_[slot] = next_load_id_++;
    }
    if (rob_is_store_[slot] != 0) {
        stores_->add();
        ++stores_in_flight_;
        ++pending_store_words_[wordKey(instr.st_vaddr)];
    }

    if (rob_unresolved_[slot] == 0)
        scheduleExec(slot, now);
    else
        rob_state_[slot] = State::WaitOps;
}

void
Core::addDependent(std::uint32_t producer, std::uint32_t slot,
                   unsigned operand)
{
    // Chain node id: "operand N of consumer S". The node lives in exactly
    // one producer's chain at a time (an operand has one producer), and
    // appending at the tail reproduces the old per-entry vector's
    // push_back order, so wakeups fire in the exact same sequence.
    const std::int32_t node = static_cast<std::int32_t>(slot * 2 + operand);
    dep_next_[node] = -1;
    if (dep_tail_[producer] >= 0)
        dep_next_[dep_tail_[producer]] = node;
    else
        dep_head_[producer] = node;
    dep_tail_[producer] = node;
}

void
Core::scheduleExec(std::uint32_t slot, Cycle now)
{
    if (rob_is_load_[slot] != 0) {
        rob_state_[slot] = State::WaitIssue;
        issue_list_.push_back(slot);   // tlpsim:waive(hotpath) reserved lq_size
        return;
    }
    complete(slot, std::max(rob_ready_[slot], now) + 1);
}

void
Core::complete(std::uint32_t slot, Cycle done_cycle)
{
    rob_state_[slot] = State::Done;
    rob_done_[slot] = done_cycle;
    if (rob_mispred_[slot] != 0) {
        fetch_stall_until_ = std::max(
            fetch_stall_until_, done_cycle + params_.mispredict_penalty);
        assert(fetch_block_tokens_ > 0);
        --fetch_block_tokens_;
        rob_mispred_[slot] = 0;
    }
    const RegId dst = rob_dst_[slot];
    if (dst != kNoReg) {
        RegState &rs = regs_[dst];
        if (rs.producer_slot == static_cast<std::int32_t>(slot)
            && rs.producer_serial == rob_serial_[slot]) {
            rs = {done_cycle, -1, 0};
        }
    }
    // Walk the dependent chain head-to-tail (insertion order). The
    // complete() recursion below (via resolveOperand → scheduleExec)
    // only ever touches *younger* slots' chains — nothing appends to
    // this one mid-walk — so caching `next` before the call is enough.
    for (std::int32_t node = dep_head_[slot]; node >= 0;) {
        const std::int32_t next = dep_next_[node];
        resolveOperand(static_cast<std::uint32_t>(node) / 2, done_cycle,
                       now_);
        node = next;
    }
    dep_head_[slot] = -1;
    dep_tail_[slot] = -1;
}

void
Core::resolveOperand(std::uint32_t slot, Cycle ready_cycle, Cycle now)
{
    rob_ready_[slot] = std::max(rob_ready_[slot], ready_cycle);
    assert(rob_unresolved_[slot] > 0);
    if (--rob_unresolved_[slot] == 0)
        scheduleExec(slot, now);
}

void
Core::issueLoads(Cycle now)
{
    unsigned ports = params_.load_ports;
    for (std::size_t i = 0; i < issue_list_.size() && ports > 0;) {
        std::uint32_t slot = issue_list_[i];
        if (rob_state_[slot] != State::WaitIssue) {
            issue_list_[i] = issue_list_.back();
            issue_list_.pop_back();
            continue;
        }
        if (rob_ready_[slot] > now) {
            ++i;
            continue;
        }
        if (issueOneLoad(slot, now)) {
            issue_list_[i] = issue_list_.back();
            issue_list_.pop_back();
            --ports;
        } else {
            ++i;
        }
    }
}

bool
Core::issueOneLoad(std::uint32_t slot, Cycle now)
{
    const Addr vaddr = rob_ld_vaddr_[slot];

    // Back-pressure: inflight_loads_ is sized to a fixed structural
    // bound (entries can outlive retirement while a demand read is in
    // flight); stall issue rather than grow past it.
    if (inflight_loads_.size() >= inflight_load_cap_)
        return false;

    // Store-to-load forwarding (word granularity).
    if (pending_store_words_.contains(wordKey(vaddr))) {
        fwd_loads_->add();
        complete(slot, now + 1);
        return true;
    }

    // Settle the load's fate before acting on it: the TLB lookup, the
    // off-chip prediction and the walk or L1D access happen once, when
    // there is room for the request they lead to (the L1D read queue,
    // or the walk target's for a walk not already in flight). A load
    // refused here leaves no trace and retries next cycle.
    const Addr vpn = pageNumber(vaddr);
    if (ports_.tlbs->probe(vaddr)) {
        if (!ports_.l1d->canAcceptRead())
            return false;
    } else if (walk_inflight_.find(vpn) == nullptr
               && !ports_.walk_target->canAcceptRead()) {
        return false;
    }

    auto tr = ports_.tlbs->lookup(vaddr);
    if (tr.needs_walk) {
        if (WalkInflight *w = walk_inflight_.find(vpn)) {
            // A walk for this page is already outstanding: piggyback by
            // appending this slot to the walk's intrusive waiter chain
            // (insertion order — wakeup order must match it).
            walk_next_[slot] = -1;
            walk_serial_[slot] = rob_serial_[slot];
            walk_next_[w->tail] = static_cast<std::int32_t>(slot);
            w->tail = static_cast<std::int32_t>(slot);
            rob_state_[slot] = State::WaitWalk;
            return true;
        }
        Packet walk;
        walk.paddr = ports_.page_table->pteAddress(params_.id, vaddr);
        walk.vaddr = walk.paddr;
        walk.ip = rob_ip_[slot];
        walk.type = AccessType::Translation;
        walk.core = static_cast<std::uint8_t>(params_.id);
        walk.requestor = this;
        walk.req_id = vpn;
        walk.birth = now + ports_.tlbs->missLatency();
        [[maybe_unused]] const bool sent = ports_.walk_target->sendRead(walk);
        assert(sent && "canAcceptRead() promised room");
        walks_->add();
        walk_next_[slot] = -1;
        walk_serial_[slot] = rob_serial_[slot];
        walk_inflight_[vpn] = WalkInflight{
            vaddr, static_cast<std::int32_t>(slot),
            static_cast<std::int32_t>(slot)};
        rob_state_[slot] = State::WaitWalk;
        return true;
    }

    OffChipPredictor::Decision d;
    if (ports_.offchip != nullptr)
        d = ports_.offchip->predictLoad(rob_ip_[slot], vaddr);

    Addr paddr = ports_.page_table->translate(params_.id, vaddr);

    Packet pkt;
    pkt.vaddr = vaddr;
    pkt.paddr = paddr;
    pkt.ip = rob_ip_[slot];
    pkt.type = AccessType::Load;
    pkt.core = static_cast<std::uint8_t>(params_.id);
    pkt.offchip_pred = d.predicted_offchip;
    pkt.delayed_offchip_flag = d.delayed_flag;
    pkt.requestor = this;
    pkt.req_id = rob_load_id_[slot];
    pkt.birth = now + (tr.latency > 0 ? tr.latency - 1 : 0);
    [[maybe_unused]] const bool sent = ports_.l1d->sendRead(pkt);
    assert(sent && "canAcceptRead() promised room");

    if (d.spec_now && ports_.dram != nullptr) {
        Packet spec = pkt;
        spec.spec_dram = true;
        spec.delayed_offchip_flag = false;
        spec.birth = now + tr.latency + params_.spec_latency;
        spec_delay_.push_back({spec.birth, spec});   // tlpsim:waive(hotpath) Ring
        spec_from_core_->add();
        if (ports_.spec_observer != nullptr)
            ports_.spec_observer->onSpecIssued(spec);
    }

    inflight_loads_[rob_load_id_[slot]] =
        {slot, rob_serial_[slot], d.meta, false};
    rob_state_[slot] = State::WaitMem;
    return true;
}

void
Core::flushSpecDelay(Cycle now)
{
    while (!spec_delay_.empty() && spec_delay_.front().first <= now) {
        ports_.dram->sendRead(spec_delay_.front().second);
        spec_delay_.pop_front();
    }
}

void
Core::retire(Cycle now)
{
    for (unsigned n = 0; n < params_.retire_width && rob_head_ != rob_tail_;
         ++n) {
        std::uint32_t slot = robIndex(rob_head_);
        if (rob_state_[slot] != State::Done || rob_done_[slot] > now)
            break;
        if (rob_is_store_[slot] != 0) {
            // A store the L1D refused waits for its wake: the write queue
            // gains room only in an L1D tick, which wakes this core.
            if (store_blocked_)
                break;
            const Addr st_vaddr = rob_st_vaddr_[slot];
            Packet w;
            w.vaddr = st_vaddr;
            w.paddr = ports_.page_table->translate(params_.id, st_vaddr);
            w.ip = rob_ip_[slot];
            w.type = AccessType::Rfo;
            w.core = static_cast<std::uint8_t>(params_.id);
            w.birth = now;
            if (!ports_.l1d->sendWrite(w)) {
                store_blocked_ = true;   // L1D write queue full
                break;
            }
            // Keep the TLB contents warm for stores without modelling a
            // second walk (store translation overlaps with the ROB wait).
            auto tr = ports_.tlbs->lookup(st_vaddr);
            if (tr.needs_walk)
                ports_.tlbs->fill(st_vaddr);
            if (int *cnt = pending_store_words_.find(wordKey(st_vaddr));
                cnt != nullptr && --*cnt == 0)
                pending_store_words_.erase(wordKey(st_vaddr));
            --stores_in_flight_;
        }
        if (rob_is_load_[slot] != 0) {
            assert(loads_in_flight_ > 0);
            --loads_in_flight_;
        }
        ++rob_head_;
        ++retired_;
        instrs_->add();
    }
}

void
Core::memReturn(const Packet &pkt)
{
    quiet_until_ = 0;   // a response re-arms the pipeline
    if (pkt.req_id == kIfetchReqId) {
        ifetch_.waiting = false;
        return;
    }
    if (pkt.type == AccessType::Translation) {
        WalkInflight *w = walk_inflight_.find(pkt.req_id);
        if (w == nullptr)
            return;
        const WalkInflight walk = *w;
        walk_inflight_.erase(pkt.req_id);
        ports_.tlbs->fill(walk.vaddr);
        // Wake the waiter chain in insertion order (the chain appends at
        // tail, so head-to-tail matches the order loads piggybacked).
        for (std::int32_t s = walk.head; s >= 0; s = walk_next_[s]) {
            const std::uint32_t slot = static_cast<std::uint32_t>(s);
            if (rob_serial_[slot] == walk_serial_[s]
                && rob_state_[slot] == State::WaitWalk) {
                rob_state_[slot] = State::WaitIssue;
                rob_ready_[slot] = std::max(rob_ready_[slot], now_ + 1);
                issue_list_.push_back(   // tlpsim:waive(hotpath) reserved lq_size
                    slot);
            }
        }
        return;
    }

    LoadTraining *lt = inflight_loads_.find(pkt.req_id);
    if (lt == nullptr)
        return;   // stale speculative response
    if (!lt->data_done) {
        lt->data_done = true;
        if (rob_serial_[lt->rob_slot] == lt->serial
            && rob_state_[lt->rob_slot] == State::WaitMem)
            complete(lt->rob_slot, now_ + 1);
    }
    if (!pkt.spec_dram) {
        // Only the demand response knows the true serve level (paper:
        // FLP trains when the load returns to the core).
        if (ports_.offchip != nullptr)
            ports_.offchip->train(lt->meta, pkt.served_by == MemLevel::Dram);
        inflight_loads_.erase(pkt.req_id);
    }
}

// tlpsim:endhot

} // namespace tlpsim
