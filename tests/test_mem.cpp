/** Tests for the page table, TLBs, cache model, and DRAM controller. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "mem/dram.hh"
#include "test_util.hh"
#include "tlb/page_table.hh"
#include "tlb/tlb.hh"

using namespace tlpsim;
using namespace tlpsim::test;

// --- Page table -------------------------------------------------------------

TEST(PageTable, FirstTouchAllocatesStable)
{
    PageTable pt;
    Addr p1 = pt.translate(0, 0x100001234);
    Addr p2 = pt.translate(0, 0x100001abc);
    EXPECT_EQ(pageNumber(p1), pageNumber(p2));
    EXPECT_EQ(p1 & kPageMask, 0x234u);
    EXPECT_EQ(p2 & kPageMask, 0xabcu);
    EXPECT_EQ(pt.translate(0, 0x100001234), p1);
}

TEST(PageTable, DistinctPagesGetDistinctFrames)
{
    PageTable pt;
    Addr a = pt.translate(0, 0x100000000);
    Addr b = pt.translate(0, 0x100002000);
    EXPECT_NE(pageNumber(a), pageNumber(b));
}

TEST(PageTable, AsidsAreIsolated)
{
    PageTable pt;
    Addr a = pt.translate(0, 0x100000000);
    Addr b = pt.translate(1, 0x100000000);
    EXPECT_NE(pageNumber(a), pageNumber(b));
}

TEST(PageTable, NeverAllocatesFrameZero)
{
    PageTable pt;
    for (int i = 0; i < 100; ++i) {
        Addr p = pt.translate(0, 0x100000000 + static_cast<Addr>(i) * kPageSize);
        EXPECT_NE(pageNumber(p), 0u);
    }
    EXPECT_EQ(pt.allocatedFrames(), 100u);
}

TEST(PageTable, PteAddressesContiguousForContiguousPages)
{
    PageTable pt;
    Addr a = pt.pteAddress(0, 0x100000000);
    Addr b = pt.pteAddress(0, 0x100001000);
    EXPECT_EQ(b - a, 8u);
}

// --- TLB ---------------------------------------------------------------------

TEST(Tlb, MissThenHit)
{
    StatGroup stats("t");
    Tlb tlb({"dtlb", 64, 4, 1}, &stats);
    EXPECT_FALSE(tlb.lookup(0x100000000));
    tlb.install(0x100000000);
    EXPECT_TRUE(tlb.lookup(0x100000123));   // same page
    EXPECT_FALSE(tlb.lookup(0x100002000));  // other page
    EXPECT_EQ(stats.get("dtlb.hit"), 1u);
    EXPECT_EQ(stats.get("dtlb.miss"), 2u);
}

TEST(Tlb, LruEvictionWithinSet)
{
    StatGroup stats("t");
    Tlb tlb({"t", 8, 2, 1}, &stats);   // 4 sets x 2 ways
    // Three pages mapping to the same set (stride = sets * page).
    Addr p0 = 0x100000000;
    Addr p1 = p0 + 4 * kPageSize;
    Addr p2 = p0 + 8 * kPageSize;
    tlb.install(p0);
    tlb.install(p1);
    tlb.lookup(p0);        // make p1 the LRU
    tlb.install(p2);       // evicts p1
    EXPECT_TRUE(tlb.lookup(p0));
    EXPECT_FALSE(tlb.lookup(p1));
    EXPECT_TRUE(tlb.lookup(p2));
}

TEST(TranslationStack, LatencyComposition)
{
    StatGroup stats("t");
    Tlb dtlb({"dtlb", 64, 4, 1}, &stats);
    Tlb stlb({"stlb", 1536, 12, 8}, &stats);
    TranslationStack ts(&dtlb, &stlb);

    auto r1 = ts.lookup(0x100000000);
    EXPECT_TRUE(r1.needs_walk);
    ts.fill(0x100000000);
    auto r2 = ts.lookup(0x100000000);
    EXPECT_FALSE(r2.needs_walk);
    EXPECT_EQ(r2.latency, 1u);   // DTLB hit

    // Evict from DTLB by filling many conflicting pages, keep STLB.
    for (int i = 1; i <= 64; ++i)
        ts.fill(0x100000000 + static_cast<Addr>(i) * 16 * kPageSize);
    auto r3 = ts.lookup(0x100000000);
    if (!r3.needs_walk) {
        EXPECT_GE(r3.latency, 1u);
    }
    EXPECT_EQ(ts.missLatency(), 9u);
}

// --- Cache -------------------------------------------------------------------

namespace
{

Cache::Params
smallCache(const std::string &name = "c", unsigned level_num = 1)
{
    Cache::Params p;
    p.name = name;
    p.level = level_num == 1 ? MemLevel::L1D
                             : (level_num == 2 ? MemLevel::L2C
                                               : MemLevel::LLC);
    p.level_num = level_num;
    p.sets = 16;
    p.ways = 4;
    p.latency = 4;
    p.mshrs = 8;
    p.rq_size = 16;
    p.wq_size = 16;
    p.pq_size = 8;
    return p;
}

} // namespace

TEST(Cache, MissGoesToLowerThenHits)
{
    StatGroup stats("t");
    MockBackend lower(20, MemLevel::Dram);
    Cache c(smallCache(), &lower, &stats);
    MockClient client;

    ASSERT_TRUE(c.sendRead(makeLoad(0x1000, &client, 0)));
    runFor(0, 40, c, lower);
    ASSERT_EQ(client.returns.size(), 1u);
    EXPECT_EQ(client.returns[0].served_by, MemLevel::Dram);
    EXPECT_EQ(stats.get("c.load_miss"), 1u);
    EXPECT_EQ(lower.reads.size(), 1u);

    // Second access to the same block: hit, no new lower-level read.
    ASSERT_TRUE(c.sendRead(makeLoad(0x1000, &client, 40)));
    runFor(40, 10, c, lower);
    ASSERT_EQ(client.returns.size(), 2u);
    EXPECT_EQ(client.returns[1].served_by, MemLevel::L1D);
    EXPECT_EQ(stats.get("c.load_hit"), 1u);
    EXPECT_EQ(lower.reads.size(), 1u);
}

TEST(Cache, HitLatencyCharged)
{
    StatGroup stats("t");
    MockBackend lower(20);
    Cache c(smallCache(), &lower, &stats);
    MockClient client;

    c.sendRead(makeLoad(0x1000, &client, 0));
    runFor(0, 40, c, lower);
    client.returns.clear();
    c.sendRead(makeLoad(0x1000, &client, 100));
    // Latency is 4: not returned before cycle 104.
    runFor(100, 4, c, lower);
    EXPECT_TRUE(client.returns.empty());
    runFor(104, 2, c, lower);
    EXPECT_EQ(client.returns.size(), 1u);
}

TEST(Cache, MshrMergesSameBlock)
{
    StatGroup stats("t");
    MockBackend lower(30);
    Cache c(smallCache(), &lower, &stats);
    MockClient client;

    c.sendRead(makeLoad(0x1000, &client, 0));
    c.sendRead(makeLoad(0x1020, &client, 0));   // same block
    runFor(0, 60, c, lower);
    EXPECT_EQ(client.returns.size(), 2u);
    EXPECT_EQ(lower.reads.size(), 1u);          // one downstream fetch
    EXPECT_EQ(stats.get("c.mshr_merge"), 1u);
}

TEST(Cache, MshrLimitStallsRq)
{
    StatGroup stats("t");
    MockBackend lower(1000);   // never returns within the test window
    Cache::Params p = smallCache();
    p.mshrs = 2;
    Cache c(p, &lower, &stats);
    MockClient client;

    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(c.sendRead(makeLoad(0x1000 + static_cast<Addr>(i) * 0x1000,
                                        &client, 0)));
    runFor(0, 50, c, lower);
    EXPECT_EQ(lower.reads.size(), 2u);   // capped by MSHRs
    EXPECT_EQ(c.mshrsInUse(), 2u);
    // The two loads refused for want of an MSHR are not counted yet.
    EXPECT_EQ(stats.get("c.load_miss"), 2u);
    EXPECT_EQ(c.nextEventCycle(49), kCycleNever);   // asleep until a fill
}

TEST(Cache, LruEviction)
{
    StatGroup stats("t");
    MockBackend lower(10);
    Cache::Params p = smallCache();
    p.sets = 1;
    p.ways = 2;
    Cache c(p, &lower, &stats);
    MockClient client;

    Cycle t = 0;
    for (Addr a : {0x1000, 0x2000}) {
        c.sendRead(makeLoad(a, &client, t));
        t = runFor(t, 30, c, lower);
    }
    // Touch 0x1000 so 0x2000 becomes LRU; then fetch a third block.
    c.sendRead(makeLoad(0x1000, &client, t));
    t = runFor(t, 10, c, lower);
    c.sendRead(makeLoad(0x3000, &client, t));
    t = runFor(t, 30, c, lower);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_TRUE(c.probe(0x3000));
}

TEST(Cache, WritebackOnDirtyEviction)
{
    StatGroup stats("t");
    MockBackend lower(10);
    Cache::Params p = smallCache();
    p.sets = 1;
    p.ways = 1;
    Cache c(p, &lower, &stats);
    MockClient client;

    // Store to 0x1000 (RFO miss -> fill dirty), then load 0x2000 evicts it.
    Packet w = makeLoad(0x1000, nullptr, 0);
    w.type = AccessType::Rfo;
    c.sendWrite(w);
    Cycle t = runFor(0, 30, c, lower);
    c.sendRead(makeLoad(0x2000, &client, t));
    runFor(t, 30, c, lower);
    ASSERT_EQ(lower.writes.size(), 1u);
    EXPECT_EQ(blockNumber(lower.writes[0].paddr), blockNumber(0x1000));
    EXPECT_EQ(lower.writes[0].type, AccessType::Writeback);
    EXPECT_EQ(stats.get("c.writebacks"), 1u);
}

TEST(Cache, WritebackMissAllocatesWithoutFetch)
{
    StatGroup stats("t");
    MockBackend lower(10);
    Cache c(smallCache("l2", 2), &lower, &stats);

    Packet wb = makeLoad(0x5000, nullptr, 0);
    wb.type = AccessType::Writeback;
    c.sendWrite(wb);
    runFor(0, 10, c, lower);
    EXPECT_TRUE(c.probe(0x5000));
    EXPECT_TRUE(lower.reads.empty());   // no fetch for writeback fills
    EXPECT_EQ(stats.get("l2.wb_miss"), 1u);
}

TEST(Cache, ProbeDoesNotAllocateOrTouch)
{
    StatGroup stats("t");
    MockBackend lower(10);
    Cache c(smallCache(), &lower, &stats);
    EXPECT_FALSE(c.probe(0x1000));
    EXPECT_TRUE(lower.reads.empty());
}

TEST(Cache, PrefetchFillsAndIsTrackedUseful)
{
    StatGroup stats("t");
    MockBackend lower(10, MemLevel::Dram);
    Cache c(smallCache(), &lower, &stats);
    MockClient client;

    Packet pf = makeLoad(0x4000, nullptr, 0);
    pf.type = AccessType::Prefetch;
    pf.fill_level = 1;
    ASSERT_TRUE(c.sendPrefetch(pf));
    Cycle t = runFor(0, 30, c, lower);
    EXPECT_TRUE(c.probe(0x4000));

    // Demand hit on the prefetched block makes it useful (from DRAM).
    c.sendRead(makeLoad(0x4000, &client, t));
    runFor(t, 10, c, lower);
    EXPECT_EQ(stats.get("c.pf_useful"), 1u);
    EXPECT_EQ(stats.get("c.pf_useful_from_dram"), 1u);
}

TEST(Cache, PrefetchedEvictUnusedCountsUseless)
{
    StatGroup stats("t");
    MockBackend lower(10, MemLevel::Dram);
    Cache::Params p = smallCache();
    p.sets = 1;
    p.ways = 1;
    Cache c(p, &lower, &stats);
    MockClient client;

    Packet pf = makeLoad(0x4000, nullptr, 0);
    pf.type = AccessType::Prefetch;
    ASSERT_TRUE(c.sendPrefetch(pf));
    Cycle t = runFor(0, 30, c, lower);
    c.sendRead(makeLoad(0x8000, &client, t));   // evicts the prefetch
    runFor(t, 30, c, lower);
    EXPECT_EQ(stats.get("c.pf_useless"), 1u);
    EXPECT_EQ(stats.get("c.pf_useless_from_dram"), 1u);
}

TEST(Cache, LatePrefetchPromotedByDemand)
{
    StatGroup stats("t");
    MockBackend lower(50, MemLevel::Dram);
    Cache c(smallCache(), &lower, &stats);
    MockClient client;

    Packet pf = makeLoad(0x4000, nullptr, 0);
    pf.type = AccessType::Prefetch;
    ASSERT_TRUE(c.sendPrefetch(pf));
    runFor(0, 10, c, lower);
    // Demand arrives while the prefetch is still in flight.
    c.sendRead(makeLoad(0x4000, &client, 10));
    runFor(10, 80, c, lower);
    ASSERT_EQ(client.returns.size(), 1u);
    EXPECT_EQ(client.returns[0].served_by, MemLevel::Dram);
    EXPECT_EQ(stats.get("c.pf_late"), 1u);
    EXPECT_EQ(stats.get("c.pf_useful"), 1u);
}

TEST(Cache, PassThroughPrefetchDoesNotAllocate)
{
    StatGroup stats("t");
    MockBackend lower(10, MemLevel::Dram);
    Cache c(smallCache("l2", 2), &lower, &stats);

    Packet pf = makeLoad(0x4000, nullptr, 0);
    pf.type = AccessType::Prefetch;
    pf.fill_level = 3;   // LLC-only prefetch passing through the L2
    ASSERT_TRUE(c.sendPrefetch(pf));
    runFor(0, 30, c, lower);
    EXPECT_FALSE(c.probe(0x4000));
    EXPECT_EQ(lower.prefetches.size(), 1u);
}

TEST(Cache, RqFullRejects)
{
    StatGroup stats("t");
    MockBackend lower(10);
    Cache::Params p = smallCache();
    p.rq_size = 2;
    Cache c(p, &lower, &stats);
    MockClient client;
    EXPECT_TRUE(c.sendRead(makeLoad(0x1000, &client, 0)));
    EXPECT_TRUE(c.sendRead(makeLoad(0x2000, &client, 0)));
    EXPECT_FALSE(c.sendRead(makeLoad(0x3000, &client, 0)));
}

TEST(Cache, DelayedSpecIssuedOnFlaggedLoadMiss)
{
    StatGroup stats("t");
    MockBackend lower(30);
    DramController::Params dp;
    dp.name = "dram";
    DramController dram(dp, &stats);

    Cache::Params p = smallCache();
    p.spec_dram = &dram;
    p.spec_latency = 6;
    struct CountingObserver : SpecIssueObserver
    {
        int calls = 0;
        void onSpecIssued(const Packet &) override { ++calls; }
    } observer;
    p.spec_observer = &observer;
    Cache c(p, &lower, &stats);
    MockClient client;

    Packet ld = makeLoad(0x1000, &client, 0);
    ld.delayed_offchip_flag = true;
    c.sendRead(ld);
    runFor(0, 60, c, lower, dram);
    EXPECT_EQ(stats.get("c.spec_delayed_issued"), 1u);
    EXPECT_EQ(stats.get("dram.spec_issued"), 1u);
    EXPECT_EQ(observer.calls, 1);

    // A flagged load that *hits* must not trigger speculation.
    Packet ld2 = makeLoad(0x1000, &client, 70);
    ld2.delayed_offchip_flag = true;
    c.sendRead(ld2);
    runFor(70, 20, c, lower, dram);
    EXPECT_EQ(stats.get("c.spec_delayed_issued"), 1u);
}

// --- Refused requests: acceptance first, then sleep until room frees ---------

namespace
{

/** Cycles the lower level refuses for in the tests below. */
constexpr Cycle kRefuseCycles = 50;

/** From cycle @p start, tick @p c and @p lower for kRefuseCycles while
 *  the lower level refuses everything, checking that the cache sleeps
 *  once its due work is all refused; then let the lower level free room
 *  during its last tick. Returns the first cycle after the refusal. */
template <typename... Units>
Cycle
refuseThenFree(Cycle start, Cache &c, MockBackend &lower, Units &...others)
{
    lower.reject_reads = lower.reject_writes = lower.reject_prefetches
        = true;
    const Cycle end = start + kRefuseCycles;
    for (Cycle t = start; t < end; ++t) {
        runFor(t, 1, c, lower, others...);
        if (t >= start + 10) {
            EXPECT_EQ(c.nextEventCycle(t), kCycleNever)
                << "a cache whose due work is all refused sleeps (t=" << t
                << ")";
        }
    }
    lower.freeRoom(end - 1);
    EXPECT_EQ(c.nextEventCycle(end - 1), end);
    return end;
}

/** Counts the accesses a prefetcher is trained on. */
struct CountingPrefetcher : Prefetcher
{
    const char *name() const override { return "counting"; }
    void
    onAccess(const PrefetchTrigger &, std::vector<PrefetchCandidate> &)
        override
    {
        ++accesses;
    }
    int accesses = 0;
};

} // namespace

TEST(Cache, RefusedRequestsCountOneMissAndGoWhenRoomFrees)
{
    // A read, a store and a prefetch all miss over a lower level that
    // refuses them for kRefuseCycles. None is counted while refused;
    // each counts one miss when accepted, in the cycle after the lower
    // level frees room.
    StatGroup stats("t");
    MockBackend lower(20);
    Cache c(smallCache(), &lower, &stats);
    lower.addSender(&c);
    MockClient client;

    ASSERT_TRUE(c.sendRead(makeLoad(0x1000, &client, 0)));
    Packet st = makeLoad(0x2000, nullptr, 0);
    st.type = AccessType::Rfo;
    ASSERT_TRUE(c.sendWrite(st));
    Packet pf = makeLoad(0x3000, nullptr, 0);
    pf.type = AccessType::Prefetch;
    ASSERT_TRUE(c.sendPrefetch(pf));

    const Cycle t = refuseThenFree(0, c, lower);
    EXPECT_EQ(stats.get("c.load_miss"), 0u);
    EXPECT_EQ(stats.get("c.rfo_miss"), 0u);
    EXPECT_EQ(stats.get("c.pf_miss"), 0u);

    runFor(t, 40, c, lower);
    EXPECT_EQ(stats.get("c.load_miss"), 1u);
    EXPECT_EQ(stats.get("c.rfo_miss"), 1u);
    EXPECT_EQ(stats.get("c.pf_miss"), 1u);
    ASSERT_EQ(lower.reads.size(), 2u);   // the load and the RFO
    EXPECT_EQ(lower.reads[0].birth, t);
    EXPECT_EQ(lower.reads[1].birth, t);
    ASSERT_EQ(lower.prefetches.size(), 1u);
    EXPECT_EQ(lower.prefetches[0].birth, t);
    EXPECT_EQ(client.returns.size(), 1u);
}

TEST(Cache, RefusedFlaggedLoadIssuesOneDelayedSpec)
{
    // An FLP-flagged load refused below issues its delayed speculative
    // DRAM read, and calls the Fig. 4 oracle, once: on acceptance.
    StatGroup stats("t");
    MockBackend lower(30);
    DramController::Params dp;
    dp.name = "dram";
    DramController dram(dp, &stats);
    Cache::Params p = smallCache();
    p.spec_dram = &dram;
    struct CountingObserver : SpecIssueObserver
    {
        int calls = 0;
        void onSpecIssued(const Packet &) override { ++calls; }
    } observer;
    p.spec_observer = &observer;
    Cache c(p, &lower, &stats);
    lower.addSender(&c);
    MockClient client;

    Packet ld = makeLoad(0x1000, &client, 0);
    ld.delayed_offchip_flag = true;
    ASSERT_TRUE(c.sendRead(ld));
    const Cycle t = refuseThenFree(0, c, lower, dram);
    EXPECT_EQ(stats.get("c.spec_delayed_issued"), 0u);
    EXPECT_EQ(observer.calls, 0);

    runFor(t, 60, c, lower, dram);
    EXPECT_EQ(stats.get("c.spec_delayed_issued"), 1u);
    EXPECT_EQ(stats.get("dram.spec_issued"), 1u);
    EXPECT_EQ(observer.calls, 1);
    ASSERT_EQ(lower.reads.size(), 1u);
    EXPECT_EQ(lower.reads[0].birth, t);
}

TEST(Cache, PrefetchFromAboveTrainsOnceWhenAccepted)
{
    // A prefetch arriving at the L2 from the L1D trains the L2's
    // prefetcher (ChampSim semantics) once, however long the level
    // below refuses it.
    StatGroup stats("t");
    MockBackend lower(20);
    CountingPrefetcher counting;
    Cache::Params p = smallCache("l2", 2);
    p.prefetcher = &counting;
    Cache l2(p, &lower, &stats);
    lower.addSender(&l2);
    MockClient l1d;

    Packet pf = makeLoad(0x3000, &l1d, 0);
    pf.type = AccessType::Prefetch;
    pf.fill_level = 1;
    ASSERT_TRUE(l2.sendPrefetch(pf));
    const Cycle t = refuseThenFree(0, l2, lower);
    EXPECT_EQ(counting.accesses, 0);
    EXPECT_EQ(stats.get("l2.pf_miss"), 0u);

    runFor(t, 40, l2, lower);
    EXPECT_EQ(counting.accesses, 1);
    EXPECT_EQ(stats.get("l2.pf_miss"), 1u);
    ASSERT_EQ(lower.prefetches.size(), 1u);
    EXPECT_EQ(lower.prefetches[0].birth, t);
    EXPECT_EQ(l1d.returns.size(), 1u);
}

TEST(Cache, RefusedWritebackMissAllocatesOnce)
{
    // A writeback missing here allocates without a fetch, but its
    // victim is dirty and the lower write queue refuses the eviction:
    // the miss is counted once, when the install goes through.
    StatGroup stats("t");
    MockBackend lower(10);
    Cache::Params p = smallCache("l2", 2);
    p.sets = 1;
    p.ways = 1;
    Cache c(p, &lower, &stats);
    lower.addSender(&c);

    Packet wb = makeLoad(0x5000, nullptr, 0);
    wb.type = AccessType::Writeback;
    ASSERT_TRUE(c.sendWrite(wb));
    runFor(0, 10, c, lower);   // 0x5000 now resident and dirty
    ASSERT_EQ(stats.get("l2.wb_miss"), 1u);

    Packet wb2 = makeLoad(0x6000, nullptr, 10);
    wb2.type = AccessType::Writeback;
    ASSERT_TRUE(c.sendWrite(wb2));
    const Cycle t = refuseThenFree(10, c, lower);
    EXPECT_EQ(stats.get("l2.wb_miss"), 1u);
    EXPECT_FALSE(c.probe(0x6000));

    runFor(t, 10, c, lower);
    EXPECT_EQ(stats.get("l2.wb_miss"), 2u);
    ASSERT_EQ(lower.writes.size(), 1u);   // the dirty victim, once
    EXPECT_EQ(lower.writes[0].birth, t);
    EXPECT_TRUE(c.probe(0x6000));
}

// --- DRAM ---------------------------------------------------------------------

namespace
{

DramController::Params
dramParams()
{
    DramController::Params p;
    p.name = "dram";
    p.burst_cycles = 19;
    return p;
}

} // namespace

TEST(Dram, ReadRoundTripLatency)
{
    StatGroup stats("t");
    DramController dram(dramParams(), &stats);
    MockClient client;

    ASSERT_TRUE(dram.sendRead(makeLoad(0x10000, &client, 0)));
    runFor(0, 200, dram);
    ASSERT_EQ(client.returns.size(), 1u);
    EXPECT_EQ(client.returns[0].served_by, MemLevel::Dram);
    // Row miss: tRP+tRCD+tCAS + burst = 72 + 19 = 91 cycles minimum.
    EXPECT_EQ(stats.get("dram.row_miss"), 1u);
    EXPECT_EQ(stats.get("dram.transactions"), 1u);
}

TEST(Dram, RowBufferHitIsCounted)
{
    StatGroup stats("t");
    DramController dram(dramParams(), &stats);
    MockClient client;

    dram.sendRead(makeLoad(0x10000, &client, 0));
    Cycle t = runFor(0, 200, dram);
    dram.sendRead(makeLoad(0x10040, &client, t));   // adjacent block
    runFor(t, 200, dram);
    EXPECT_EQ(stats.get("dram.row_hit"), 1u);
    EXPECT_EQ(stats.get("dram.row_miss"), 1u);
}

TEST(Dram, BusBandwidthSerializesBursts)
{
    StatGroup stats("t");
    DramController::Params p = dramParams();
    p.burst_cycles = 50;
    DramController dram(p, &stats);
    MockClient client;

    // Two reads to different banks: access latency overlaps but the data
    // bursts must serialize -> second completes >= 50 cycles after first.
    dram.sendRead(makeLoad(0x10000, &client, 0));
    dram.sendRead(makeLoad(0x10000 + 64 * 128, &client, 0));
    Cycle t = 0;
    std::vector<Cycle> arrivals;
    for (; t < 500 && arrivals.size() < 2; ++t) {
        dram.tick(t);
        while (arrivals.size() < client.returns.size())
            arrivals.push_back(t);
    }
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_GE(arrivals[1] - arrivals[0], 50u);
}

TEST(Dram, WritesDrainWithoutResponse)
{
    StatGroup stats("t");
    DramController dram(dramParams(), &stats);
    Packet w = makeLoad(0x10000, nullptr, 0);
    w.type = AccessType::Writeback;
    ASSERT_TRUE(dram.sendWrite(w));
    runFor(0, 300, dram);
    EXPECT_EQ(stats.get("dram.writes"), 1u);
    EXPECT_EQ(stats.get("dram.transactions"), 1u);
}

TEST(Dram, SpecBufferMergesDemand)
{
    StatGroup stats("t");
    DramController dram(dramParams(), &stats);
    MockClient core;
    MockClient llc;

    Packet spec = makeLoad(0x20000, &core, 0);
    spec.spec_dram = true;
    ASSERT_TRUE(dram.sendRead(spec));
    // Demand for the same line arrives while the spec is in flight.
    dram.sendRead(makeLoad(0x20000, &llc, 5));
    runFor(0, 300, dram);
    EXPECT_EQ(stats.get("dram.transactions"), 1u);   // merged!
    EXPECT_EQ(stats.get("dram.spec_merged_inflight"), 1u);
    EXPECT_EQ(core.returns.size(), 1u);
    EXPECT_EQ(llc.returns.size(), 1u);
}

TEST(Dram, SpecBufferServesLaterDemand)
{
    StatGroup stats("t");
    DramController dram(dramParams(), &stats);
    MockClient core;
    MockClient llc;

    Packet spec = makeLoad(0x20000, &core, 0);
    spec.spec_dram = true;
    dram.sendRead(spec);
    Cycle t = runFor(0, 300, dram);
    ASSERT_TRUE(dram.specBufferHolds(0, 0x20000));

    dram.sendRead(makeLoad(0x20000, &llc, t));
    runFor(t, 50, dram);
    EXPECT_EQ(stats.get("dram.transactions"), 1u);
    EXPECT_EQ(stats.get("dram.spec_consumed"), 1u);
    ASSERT_EQ(llc.returns.size(), 1u);
    EXPECT_EQ(llc.returns[0].served_by, MemLevel::Dram);
    EXPECT_FALSE(dram.specBufferHolds(0, 0x20000));   // consumed
}

TEST(Dram, SpecDuplicatesCoalesce)
{
    StatGroup stats("t");
    DramController dram(dramParams(), &stats);
    MockClient core;
    for (int i = 0; i < 5; ++i) {
        Packet spec = makeLoad(0x20000, &core, 0);
        spec.spec_dram = true;
        dram.sendRead(spec);
    }
    runFor(0, 300, dram);
    EXPECT_EQ(stats.get("dram.spec_issued"), 1u);
    EXPECT_EQ(stats.get("dram.transactions"), 1u);
}

TEST(Dram, SpecBuffersArePerCore)
{
    StatGroup stats("t");
    DramController::Params p = dramParams();
    p.num_cores = 2;
    DramController dram(p, &stats);
    MockClient c0;

    Packet spec = makeLoad(0x20000, &c0, 0);
    spec.spec_dram = true;
    spec.core = 0;
    dram.sendRead(spec);
    runFor(0, 300, dram);
    EXPECT_TRUE(dram.specBufferHolds(0, 0x20000));
    EXPECT_FALSE(dram.specBufferHolds(1, 0x20000));
}

TEST(Dram, RqFullRejectsDemandButDropsSpec)
{
    StatGroup stats("t");
    DramController::Params p = dramParams();
    p.rq_size = 2;
    DramController dram(p, &stats);
    MockClient client;

    EXPECT_TRUE(dram.sendRead(makeLoad(0x10000, &client, 0)));
    EXPECT_TRUE(dram.sendRead(makeLoad(0x20000, &client, 0)));
    EXPECT_FALSE(dram.sendRead(makeLoad(0x30000, &client, 0)));

    Packet spec = makeLoad(0x40000, &client, 0);
    spec.spec_dram = true;
    EXPECT_TRUE(dram.sendRead(spec));   // best effort: accepted but dropped
    EXPECT_EQ(stats.get("dram.spec_dropped_full"), 1u);
}
