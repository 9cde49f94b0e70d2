/**
 * Core model tests: IPC sanity under known dataflow patterns, branch
 * mispredict stalls, store-to-load forwarding, TLB walk plumbing, and the
 * off-chip prediction hook points.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"

#include "core/core.hh"
#include "mem/dram.hh"
#include "test_util.hh"
#include "tlb/page_table.hh"
#include "tlb/tlb.hh"
#include "trace/trace.hh"
#include "workloads/recorder.hh"

using namespace tlpsim;
using namespace tlpsim::test;

namespace
{

/** Minimal single-core rig: core + mock L1I/L1D/walk backends. */
struct CoreRig
{
    explicit CoreRig(const Trace &trace, Cycle l1d_latency = 4,
                     OffChipPredictor *offchip = nullptr,
                     DramController *dram = nullptr)
        : stats("t"), l1i(1, MemLevel::L1D), l1d(l1d_latency, MemLevel::L1D),
          walk(20, MemLevel::L2C), dtlb({"dtlb", 64, 4, 1}, &stats),
          stlb({"stlb", 1536, 12, 8}, &stats), tlbs(&dtlb, &stlb),
          source(trace), reader(source)
    {
        Core::Params cp;
        cp.name = "cpu0";
        Core::Ports ports;
        ports.trace = &reader;
        ports.l1i = &l1i_always_hit;
        ports.l1d = &l1d;
        ports.walk_target = &walk;
        ports.tlbs = &tlbs;
        ports.page_table = &pt;
        ports.dram = dram;
        ports.offchip = offchip;
        core = std::make_unique<Core>(cp, ports, &stats);
        l1d.addSender(core.get());
    }

    /** Run until @p instrs retire; returns cycles taken. */
    Cycle
    runUntil(InstrCount instrs, Cycle max_cycles = 2'000'000)
    {
        Cycle c = 0;
        while (core->retired() < instrs && c < max_cycles) {
            core->tick(c);
            l1i.tick(c);
            l1d.tick(c);
            walk.tick(c);
            ++c;
        }
        return c;
    }

    /** L1I that always hits (isolates data-side behaviour). */
    struct AlwaysHit : MemoryBackend
    {
        bool sendRead(const Packet &) override { return true; }
        bool sendWrite(const Packet &) override { return true; }
        bool canAcceptRead() const override { return true; }
        bool probe(Addr) const override { return true; }
        void tick(Cycle) override {}
    } l1i_always_hit;

    StatGroup stats;
    MockBackend l1i;
    MockBackend l1d;
    MockBackend walk;
    PageTable pt;
    Tlb dtlb;
    Tlb stlb;
    TranslationStack tlbs;
    MemoryTraceSource source;
    TraceReader reader;
    std::unique_ptr<Core> core;
};

Trace
makeTrace(const std::function<void(workloads::TraceRecorder &)> &fn,
          std::uint64_t n = 10'000)
{
    Trace t("t");
    workloads::TraceRecorder rec(t, {n, Addr{1} << 32});
    fn(rec);
    return t;
}

} // namespace

TEST(Core, IndependentAluRunsAtFetchWidth)
{
    Trace t = makeTrace([](auto &rec) {
        while (!rec.full())
            rec.alu(0x400000);
    });
    CoreRig rig(t);
    Cycle c = rig.runUntil(8000);
    double ipc = 8000.0 / static_cast<double>(c);
    EXPECT_GT(ipc, 3.5);   // 4-wide
    EXPECT_LE(ipc, 4.05);
}

TEST(Core, DependentChainRunsAtOneIpc)
{
    Trace t = makeTrace([](auto &rec) {
        RegId r = rec.alu(0x400000);
        while (!rec.full())
            r = rec.alu(0x400004, r);   // serial dependence
    });
    CoreRig rig(t);
    Cycle c = rig.runUntil(8000);
    double ipc = 8000.0 / static_cast<double>(c);
    EXPECT_GT(ipc, 0.9);
    EXPECT_LT(ipc, 1.1);
}

TEST(Core, LoadLatencyBoundsDependentChain)
{
    // Serial chain of dependent loads: IPC ≈ 1 / (L1D latency + overhead).
    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        RegId r = kNoReg;
        while (!rec.full())
            r = rec.load(0x400000, a, r);
    });
    CoreRig rig(t, 8);
    Cycle c = rig.runUntil(2000);
    double cpi = static_cast<double>(c) / 2000.0;
    EXPECT_GT(cpi, 7.0);    // at least the L1D latency per load
    EXPECT_LT(cpi, 14.0);
}

TEST(Core, MispredictsThrottleFetch)
{
    // Random branches: every mispredict stalls fetch until resolution.
    Trace biased = makeTrace([](auto &rec) {
        while (!rec.full()) {
            rec.branch(0x400000, true);
            rec.ops(0x400004, 3);
        }
    });
    Trace random = makeTrace([](auto &rec) {
        Rng rng(4);
        while (!rec.full()) {
            rec.branch(0x400008, rng.chance(0.5));
            rec.ops(0x40000c, 3);
        }
    });
    CoreRig rig_biased(biased);
    CoreRig rig_random(random);
    Cycle cb = rig_biased.runUntil(8000);
    Cycle cr = rig_random.runUntil(8000);
    EXPECT_GT(cr, cb * 2);   // mispredicts must cost real time
}

TEST(Core, StoreToLoadForwardingSkipsCache)
{
    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        while (!rec.full()) {
            RegId v = rec.alu(0x400000);
            rec.store(0x400004, a, v);
            rec.load(0x400008, a);   // forwarded from the pending store
        }
    });
    CoreRig rig(t, 100);      // L1D painfully slow: forwarding must bypass
    rig.runUntil(3000);
    EXPECT_GT(rig.stats.get("cpu0.forwarded_loads"), 800u);
}

TEST(Core, PageWalksGoToWalkTarget)
{
    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        std::uint64_t i = 0;
        while (!rec.full()) {
            rec.load(0x400000, a + (i * 5) * kPageSize);   // new page
            ++i;
        }
    });
    CoreRig rig(t);
    rig.runUntil(500);
    EXPECT_GT(rig.stats.get("cpu0.page_walks"), 50u);
    EXPECT_FALSE(rig.walk.reads.empty());
    for (const auto &p : rig.walk.reads)
        EXPECT_EQ(p.type, AccessType::Translation);
}

TEST(Core, TlbHitsAfterWalk)
{
    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        while (!rec.full())
            rec.load(0x400000, a);   // one page forever
    });
    CoreRig rig(t);
    rig.runUntil(5000);
    EXPECT_LE(rig.stats.get("cpu0.page_walks"), 1u);
    EXPECT_GT(rig.stats.get("dtlb.hit"), 4000u);
}

TEST(Core, StoresWriteThroughAtRetire)
{
    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        std::uint64_t i = 0;
        while (!rec.full()) {
            rec.store(0x400000, a + (i % 64) * 64);
            rec.ops(0x400004, 2);
            ++i;
        }
    });
    CoreRig rig(t);
    rig.runUntil(3000);
    EXPECT_GT(rig.l1d.writes.size(), 500u);
    for (const auto &w : rig.l1d.writes)
        EXPECT_EQ(w.type, AccessType::Rfo);
}

TEST(Core, OffchipImmediateFiresSpecToDram)
{
    StatGroup dstats("d");
    DramController::Params dp;
    DramController dram(dp, &dstats);

    StatGroup ostats("o");
    OffChipPredictor::Params op;
    op.policy = OffchipPolicy::Immediate;
    op.tau_high = -100;   // fire on every load regardless of training
    OffChipPredictor offchip(op, &ostats);

    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        std::uint64_t i = 0;
        while (!rec.full()) {
            rec.load(0x400000, a + (i++ % 512) * 64);
            rec.ops(0x400004, 3);
        }
    });
    CoreRig rig(t, 4, &offchip, &dram);
    Cycle c = 0;
    while (rig.core->retired() < 2000 && c < 200'000) {
        rig.core->tick(c);
        rig.l1d.tick(c);
        rig.walk.tick(c);
        dram.tick(c);
        ++c;
    }
    EXPECT_GT(rig.stats.get("cpu0.spec_from_core"), 100u);
    // The 64-entry spec buffer throttles issue while lines are in flight,
    // so issued < fired-from-core, but a healthy stream must get through.
    EXPECT_GT(dstats.get("dram.spec_issued"), 50u);
}

TEST(Core, DelayedFlagTagsPackets)
{
    StatGroup ostats("o");
    OffChipPredictor::Params op;
    op.policy = OffchipPolicy::AlwaysDelay;
    op.tau_low = -100;   // flag every load
    OffChipPredictor offchip(op, &ostats);

    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        std::uint64_t i = 0;
        while (!rec.full())
            rec.load(0x400000, a + (i++ % 512) * 64);
    });
    CoreRig rig(t, 4, &offchip, nullptr);
    rig.runUntil(500);
    int flagged = 0;
    for (const auto &p : rig.l1d.reads)
        flagged += p.delayed_offchip_flag;
    EXPECT_GT(flagged, 100);
    EXPECT_EQ(rig.stats.get("cpu0.spec_from_core"), 0u);
}

TEST(Core, TrainsOffchipOnDemandReturnOnly)
{
    StatGroup ostats("o");
    OffChipPredictor::Params op;
    op.policy = OffchipPolicy::Immediate;
    op.tau_high = 1000;   // never fire; we only check training plumbing
    OffChipPredictor offchip(op, &ostats);

    Trace t = makeTrace([](auto &rec) {
        Addr a = Addr{1} << 32;
        std::uint64_t i = 0;
        while (!rec.full())
            rec.load(0x400000, a + (i++ % 512) * 64);
    });
    CoreRig rig(t, 4, &offchip, nullptr);
    rig.runUntil(1000);
    EXPECT_GT(ostats.get("flp.train_correct")
                  + ostats.get("flp.train_wrong"),
              800u);
}

TEST(Core, LoadBlockedAtIssueIsPredictedAndTranslatedOnce)
{
    // One load whose page is in the STLB but not the DTLB, behind an
    // L1D read queue that refuses it for 50 cycles. It is translated and
    // predicted once, when the L1D can take it, so the DTLB miss plus
    // STLB hit latency is charged to the access that finally issues.
    StatGroup ostats("o");
    OffChipPredictor::Params op;
    op.policy = OffchipPolicy::Selective;
    OffChipPredictor offchip(op, &ostats);

    const Addr a = Addr{1} << 32;
    Trace t = makeTrace([a](auto &rec) {
        rec.load(0x400000, a);
        while (!rec.full())
            rec.alu(0x400004);
    });
    CoreRig rig(t, 4, &offchip, nullptr);
    rig.stlb.install(a);
    rig.l1d.reject_reads = true;

    constexpr Cycle kRefused = 50;
    auto predictions = [&] {
        return ostats.get("flp.pred_offchip")
            + ostats.get("flp.pred_onchip");
    };
    for (Cycle c = 0; c < kRefused; ++c) {
        rig.core->tick(c);
        rig.l1d.tick(c);
    }
    EXPECT_EQ(predictions(), 0u);
    EXPECT_EQ(rig.stats.get("dtlb.hit") + rig.stats.get("dtlb.miss"), 0u);
    EXPECT_TRUE(rig.l1d.reads.empty());

    rig.l1d.freeRoom(kRefused - 1);
    for (Cycle c = kRefused; c < kRefused + 5; ++c) {
        rig.core->tick(c);
        rig.l1d.tick(c);
    }
    EXPECT_EQ(predictions(), 1u);
    EXPECT_EQ(rig.stats.get("dtlb.miss"), 1u);
    EXPECT_EQ(rig.stats.get("dtlb.hit"), 0u);
    EXPECT_EQ(rig.stats.get("stlb.hit"), 1u);
    ASSERT_EQ(rig.l1d.reads.size(), 1u);
    // Issued at kRefused; DTLB (1) + STLB (8) latency, less the cycle
    // the L1D's own latency already covers.
    EXPECT_EQ(rig.l1d.reads[0].birth, kRefused + 8);
}

TEST(Core, LoadBlockedOnItsWalkIsTranslatedOnce)
{
    // A TLB-missing load whose page walk the walk target refuses for 50
    // cycles looks the TLBs up once, when the walk can be sent.
    const Addr a = Addr{1} << 32;
    Trace t = makeTrace([a](auto &rec) {
        rec.load(0x400000, a);
        while (!rec.full())
            rec.alu(0x400004);
    });
    CoreRig rig(t);
    rig.walk.reject_reads = true;

    constexpr Cycle kRefused = 50;
    for (Cycle c = 0; c < kRefused; ++c) {
        rig.core->tick(c);
        rig.walk.tick(c);
    }
    EXPECT_EQ(rig.stats.get("dtlb.miss") + rig.stats.get("stlb.miss"), 0u);
    EXPECT_TRUE(rig.walk.reads.empty());

    rig.walk.freeRoom(kRefused - 1);
    for (Cycle c = kRefused; c < kRefused + 5; ++c) {
        rig.core->tick(c);
        rig.walk.tick(c);
    }
    EXPECT_EQ(rig.stats.get("dtlb.miss"), 1u);
    EXPECT_EQ(rig.stats.get("stlb.miss"), 1u);
    EXPECT_EQ(rig.stats.get("cpu0.page_walks"), 1u);
    ASSERT_EQ(rig.walk.reads.size(), 1u);
    EXPECT_EQ(rig.walk.reads[0].birth, kRefused + 9);
}

TEST(Core, RefusedStoreWaitsForTheL1dWake)
{
    // A store at the ROB head that the L1D refuses is offered once: the
    // load responses that keep ticking the core behind it do not retry
    // it. The L1D's wake, once it has room, does.
    const Addr a = Addr{1} << 32;
    Trace t = makeTrace([a](auto &rec) {
        rec.store(0x400000, a);
        for (Addr i = 1; i <= 16; ++i)
            rec.load(0x400004, a + i * kBlockSize);
        while (!rec.full())
            rec.alu(0x400008);
    });
    CoreRig rig(t);
    rig.l1d.reject_writes = true;

    constexpr Cycle kRefused = 200;
    auto run = [&rig](Cycle from, Cycle to) {
        for (Cycle c = from; c < to; ++c) {
            rig.core->tickIfDue(c);
            rig.l1d.tick(c);
            rig.walk.tick(c);
        }
    };
    run(0, kRefused);
    EXPECT_EQ(rig.l1d.refused_writes, 1u);
    EXPECT_EQ(rig.l1d.reads.size(), 16u);   // the loads behind it returned
    EXPECT_TRUE(rig.l1d.writes.empty());
    EXPECT_EQ(rig.core->retired(), 0u);

    rig.l1d.freeRoom(kRefused - 1);
    run(kRefused, kRefused + 5);
    EXPECT_EQ(rig.l1d.refused_writes, 1u);
    ASSERT_EQ(rig.l1d.writes.size(), 1u);
    EXPECT_EQ(rig.l1d.writes[0].birth, kRefused);
    EXPECT_GT(rig.core->retired(), 0u);
}

TEST(Core, RetiredMonotonicAndExact)
{
    Trace t = makeTrace([](auto &rec) {
        while (!rec.full())
            rec.alu(0x400000);
    }, 100);
    CoreRig rig(t);
    InstrCount last = 0;
    for (Cycle c = 0; c < 1000; ++c) {
        rig.core->tick(c);
        rig.l1d.tick(c);
        EXPECT_GE(rig.core->retired(), last);
        EXPECT_LE(rig.core->retired() - last, 4u);   // retire width
        last = rig.core->retired();
    }
    EXPECT_GT(last, 900u);
}
