/**
 * @file
 * Shared test scaffolding: a scriptable lower-level memory backend, a
 * completion-capturing client, and a clock helper for driving cache/DRAM
 * units in isolation.
 */

#ifndef TLPSIM_TESTS_TEST_UTIL_HH
#define TLPSIM_TESTS_TEST_UTIL_HH

#include <vector>

#include "mem/packet.hh"

namespace tlpsim::test
{

/**
 * A backend that records everything sent to it and can answer reads after
 * a fixed latency, tagging them with a chosen serve level. The reject_*
 * flags make it refuse like a full queue; freeRoom() ends the refusal
 * the way a real level does, waking its registered senders.
 */
class MockBackend : public MemoryBackend
{
  public:
    explicit MockBackend(Cycle latency = 50,
                         MemLevel serves_as = MemLevel::Dram)
        : latency_(latency), serves_as_(serves_as)
    {}

    bool
    sendRead(const Packet &pkt) override
    {
        if (reject_reads) {
            noteRefusal();
            return false;
        }
        reads.push_back(pkt);
        pending_.push_back({pkt, pkt.birth + latency_});
        return true;
    }

    bool
    sendWrite(const Packet &pkt) override
    {
        if (reject_writes) {
            ++refused_writes;
            noteRefusal();
            return false;
        }
        writes.push_back(pkt);
        return true;
    }

    bool
    sendPrefetch(const Packet &pkt) override
    {
        if (reject_prefetches) {
            noteRefusal();
            return false;
        }
        prefetches.push_back(pkt);
        pending_.push_back({pkt, pkt.birth + latency_});
        return true;
    }

    bool canAcceptRead() const override { return !reject_reads; }

    bool probe(Addr) const override { return false; }

    /** Stop refusing, as a level that frees room during its tick at
     *  @p now: senders it refused retry from now + 1. */
    void
    freeRoom(Cycle now)
    {
        reject_reads = reject_writes = reject_prefetches = false;
        wakeSenders(now);
    }

    void
    tick(Cycle now) override
    {
        for (std::size_t i = 0; i < pending_.size();) {
            if (pending_[i].second > now) {
                ++i;
                continue;
            }
            Packet resp = pending_[i].first;
            pending_[i] = pending_.back();
            pending_.pop_back();
            resp.served_by = serves_as_;
            if (resp.requestor != nullptr)
                resp.requestor->memReturn(resp);
        }
    }

    std::vector<Packet> reads;
    std::vector<Packet> writes;
    std::vector<Packet> prefetches;
    bool reject_reads = false;
    bool reject_writes = false;
    bool reject_prefetches = false;
    std::size_t refused_writes = 0;   ///< sendWrite calls refused

  private:
    Cycle latency_;
    MemLevel serves_as_;
    std::vector<std::pair<Packet, Cycle>> pending_;
};

/** Captures completions. */
class MockClient : public MemoryClient
{
  public:
    void memReturn(const Packet &pkt) override { returns.push_back(pkt); }

    std::vector<Packet> returns;
};

/** Make a demand load packet. */
inline Packet
makeLoad(Addr paddr, MemoryClient *client = nullptr, Cycle birth = 0,
         Addr ip = 0x400000)
{
    Packet p;
    p.vaddr = paddr;
    p.paddr = paddr;
    p.ip = ip;
    p.type = AccessType::Load;
    p.requestor = client;
    p.birth = birth;
    return p;
}

/** Tick a set of units for @p cycles starting at @p start. */
template <typename... Units>
Cycle
runFor(Cycle start, Cycle cycles, Units &...units)
{
    for (Cycle c = start; c < start + cycles; ++c)
        (units.tick(c), ...);
    return start + cycles;
}

} // namespace tlpsim::test

#endif // TLPSIM_TESTS_TEST_UTIL_HH
