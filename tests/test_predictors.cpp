/**
 * Tests for the neural machinery: hashed perceptron, page buffer, feature
 * extraction, the FLP/Hermes off-chip predictor (all three policies), SLP
 * filtering/training, PPF, and the branch predictor.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"

#include "core/branch_pred.hh"
#include "filter/ppf.hh"
#include "offchip/feature.hh"
#include "offchip/offchip_predictor.hh"
#include "offchip/page_buffer.hh"
#include "offchip/perceptron.hh"
#include "offchip/slp.hh"
#include "prefetch/spp.hh"

using namespace tlpsim;

// --- HashedPerceptron ------------------------------------------------------

TEST(Perceptron, StartsAtZero)
{
    HashedPerceptron p("p", {{"a", 64}, {"b", 64}}, 10);
    std::uint16_t idx[2] = {3, 7};
    EXPECT_EQ(p.predict(idx, 2), 0);
}

TEST(Perceptron, TrainsTowardPositive)
{
    HashedPerceptron p("p", {{"a", 64}, {"b", 64}}, 10);
    std::uint16_t idx[2] = {3, 7};
    for (int i = 0; i < 40; ++i)
        p.train(idx, 2, p.predict(idx, 2), true, 0);
    EXPECT_GE(p.predict(idx, 2), 10);
}

TEST(Perceptron, StopsTrainingWhenConfident)
{
    HashedPerceptron p("p", {{"a", 64}}, 4);
    std::uint16_t idx[1] = {3};
    for (int i = 0; i < 100; ++i)
        p.train(idx, 1, p.predict(idx, 1), true, 0);
    // With a 5-bit weight the cap is 15, but training stops at threshold+.
    EXPECT_LE(p.predict(idx, 1), 5);
    EXPECT_GE(p.predict(idx, 1), 4);
}

TEST(Perceptron, MispredictAlwaysTrains)
{
    HashedPerceptron p("p", {{"a", 64}}, 2);
    std::uint16_t idx[1] = {5};
    for (int i = 0; i < 30; ++i)
        p.train(idx, 1, p.predict(idx, 1), true, 0);
    int high = p.predict(idx, 1);
    for (int i = 0; i < 60; ++i)
        p.train(idx, 1, p.predict(idx, 1), false, 0);
    EXPECT_LT(p.predict(idx, 1), high);
    EXPECT_LE(p.predict(idx, 1), 0);
}

TEST(Perceptron, IndexForStaysInRange)
{
    HashedPerceptron p("p", {{"a", 128}}, 10);
    for (std::uint64_t v : {0ULL, 0x1234ULL, ~0ULL, 0xdeadbeefcafeULL})
        EXPECT_LT(p.indexFor(0, v), 128u);
}

TEST(Perceptron, ResetClearsWeights)
{
    HashedPerceptron p("p", {{"a", 64}}, 10);
    std::uint16_t idx[1] = {1};
    p.nudge(idx, 1, true);
    EXPECT_GT(p.predict(idx, 1), 0);
    p.reset();
    EXPECT_EQ(p.predict(idx, 1), 0);
}

TEST(Perceptron, StorageMatchesTableGeometry)
{
    HashedPerceptron p("p", {{"a", 1024}, {"b", 128}}, 10);
    EXPECT_EQ(p.storage().totalBits(), (1024u + 128u) * 5u);
}

// --- PageBuffer --------------------------------------------------------------

TEST(PageBuffer, FirstAccessSemantics)
{
    PageBuffer pb;
    EXPECT_TRUE(pb.firstAccess(0x1000));    // new page, new line
    EXPECT_FALSE(pb.firstAccess(0x1008));   // same line
    EXPECT_TRUE(pb.firstAccess(0x1040));    // same page, new line
    EXPECT_FALSE(pb.firstAccess(0x1040));
}

TEST(PageBuffer, EvictionForgetsOldPages)
{
    PageBuffer::Params p;
    p.entries = 4;
    p.ways = 2;
    PageBuffer pb(p);
    EXPECT_TRUE(pb.firstAccess(0x0000));
    // Flood one set with conflicting pages (stride = sets * page = 2 pages).
    for (Addr i = 1; i <= 8; ++i)
        pb.firstAccess(i * 2 * kPageSize);
    // The original page was evicted: first access again.
    EXPECT_TRUE(pb.firstAccess(0x0000));
}

TEST(PageBuffer, StorageBudgetIsTableII)
{
    PageBuffer pb;
    // Paper: 0.63 KB page buffer. Ours is ~0.80 KB with explicit tags.
    EXPECT_NEAR(pb.storage().totalKilobytes(), 0.7, 0.2);
}

// --- Features -----------------------------------------------------------------

TEST(Features, ValuesDependOnTheRightInputs)
{
    FeatureContext a;
    a.pc = 0x400100;
    a.addr = 0x12345678;
    a.first_access = false;
    a.last_pcs_hash = 0x99;

    FeatureContext b = a;
    b.first_access = true;
    EXPECT_NE(featureValue(FeatureKind::PcFirstAccess, a),
              featureValue(FeatureKind::PcFirstAccess, b));
    EXPECT_EQ(featureValue(FeatureKind::PcXorLineOffset, a),
              featureValue(FeatureKind::PcXorLineOffset, b));

    FeatureContext c = a;
    c.addr += 64;   // next line: line offset changes, byte offset same
    EXPECT_NE(featureValue(FeatureKind::PcXorLineOffset, a),
              featureValue(FeatureKind::PcXorLineOffset, c));
    EXPECT_EQ(featureValue(FeatureKind::PcXorByteOffset, a),
              featureValue(FeatureKind::PcXorByteOffset, c));
}

TEST(Features, FlpPredFeatureSeparatesPredictionBit)
{
    FeatureContext a;
    a.addr = 0x1040;
    a.flp_pred = false;
    FeatureContext b = a;
    b.flp_pred = true;
    EXPECT_NE(featureValue(FeatureKind::FlpPredLineOffset, a),
              featureValue(FeatureKind::FlpPredLineOffset, b));
}

TEST(Features, LegacySetMatchesTableI)
{
    auto f = legacyHermesFeatures();
    ASSERT_EQ(f.size(), 5u);
    EXPECT_EQ(f[4], FeatureKind::Last4LoadPcs);
    auto s = slpFeatures(true);
    ASSERT_EQ(s.size(), 6u);
    EXPECT_EQ(s[5], FeatureKind::FlpPredLineOffset);
    EXPECT_EQ(slpFeatures(false).size(), 5u);
}

TEST(Features, TableSizesMatchPaperBudget)
{
    auto tables = featureTables(legacyHermesFeatures());
    std::uint64_t bits = 0;
    for (const auto &t : tables)
        bits += t.entries * 5;
    // Paper: FLP weight tables 2.58 KB.
    EXPECT_NEAR(static_cast<double>(bits) / 8192.0, 2.58, 0.15);
}

TEST(Features, LoadPcHistoryChanges)
{
    LoadPcHistory h;
    auto h0 = h.hash();
    h.push(0x400100);
    auto h1 = h.hash();
    h.push(0x400200);
    auto h2 = h.hash();
    EXPECT_NE(h0, h1);
    EXPECT_NE(h1, h2);
}

// --- OffChipPredictor ----------------------------------------------------------

namespace
{

/** Teach the predictor that ip_off loads go off-chip, ip_on loads don't. */
void
trainPattern(OffChipPredictor &p, int rounds, Addr ip_off, Addr ip_on)
{
    Addr a = 0x100000000;
    for (int i = 0; i < rounds; ++i) {
        auto d1 = p.predictLoad(ip_off, a);
        p.train(d1.meta, true);
        auto d2 = p.predictLoad(ip_on, a + 0x40000);
        p.train(d2.meta, false);
        a += 64;
    }
}

} // namespace

TEST(OffChip, LearnsPcCorrelation)
{
    StatGroup stats("t");
    OffChipPredictor::Params p;
    p.policy = OffchipPolicy::Immediate;
    p.tau_high = 8;
    OffChipPredictor pred(p, &stats);
    trainPattern(pred, 200, 0x400100, 0x400200);

    auto off = pred.predictLoad(0x400100, 0x200000000);
    auto on = pred.predictLoad(0x400200, 0x200100000);
    EXPECT_TRUE(off.predicted_offchip);
    EXPECT_TRUE(off.spec_now);
    EXPECT_FALSE(on.predicted_offchip);
}

TEST(OffChip, SelectivePolicySplitsByConfidence)
{
    StatGroup stats("t");
    OffChipPredictor::Params p;
    p.policy = OffchipPolicy::Selective;
    p.tau_high = 1000;   // unreachable: everything positive is delayed
    p.tau_low = 8;
    OffChipPredictor pred(p, &stats);
    trainPattern(pred, 200, 0x400100, 0x400200);

    auto d = pred.predictLoad(0x400100, 0x200000000);
    EXPECT_TRUE(d.predicted_offchip);
    EXPECT_FALSE(d.spec_now);
    EXPECT_TRUE(d.delayed_flag);
}

TEST(OffChip, SelectiveHighConfidenceFiresNow)
{
    StatGroup stats("t");
    OffChipPredictor::Params p;
    p.policy = OffchipPolicy::Selective;
    p.tau_high = 20;
    p.tau_low = 4;
    OffChipPredictor pred(p, &stats);
    trainPattern(pred, 300, 0x400100, 0x400200);

    auto d = pred.predictLoad(0x400100, 0x200000000);
    EXPECT_TRUE(d.spec_now);
    EXPECT_FALSE(d.delayed_flag);
}

TEST(OffChip, AlwaysDelayNeverFiresNow)
{
    StatGroup stats("t");
    OffChipPredictor::Params p;
    p.policy = OffchipPolicy::AlwaysDelay;
    p.tau_low = 4;
    OffChipPredictor pred(p, &stats);
    trainPattern(pred, 300, 0x400100, 0x400200);

    auto d = pred.predictLoad(0x400100, 0x200000000);
    EXPECT_TRUE(d.predicted_offchip);
    EXPECT_FALSE(d.spec_now);
    EXPECT_TRUE(d.delayed_flag);
}

TEST(OffChip, RetrainsWhenBehaviorFlips)
{
    StatGroup stats("t");
    OffChipPredictor::Params p;
    p.policy = OffchipPolicy::Immediate;
    p.tau_high = 8;
    OffChipPredictor pred(p, &stats);
    trainPattern(pred, 200, 0x400100, 0x400200);
    EXPECT_TRUE(pred.predictLoad(0x400100, 0x300000000).predicted_offchip);

    // The phase changes: the "off-chip" PC becomes cache-resident.
    for (int i = 0; i < 300; ++i) {
        auto d = pred.predictLoad(0x400100,
                                  0x300000000 + static_cast<Addr>(i) * 64);
        pred.train(d.meta, false);
    }
    EXPECT_FALSE(pred.predictLoad(0x400100, 0x310000000).predicted_offchip);
}

TEST(OffChip, StorageNearPaperBudget)
{
    StatGroup stats("t");
    OffChipPredictor::Params p;
    OffChipPredictor pred(p, &stats);
    // Paper Table II: FLP = 3.21 KB (tables + page buffer).
    EXPECT_NEAR(pred.storage().totalKilobytes(), 3.21, 0.4);
}

// --- SLP -----------------------------------------------------------------------

namespace
{

PrefetchTrigger
slpTrigger(Addr ip, bool flp_pred = false)
{
    PrefetchTrigger t;
    t.ip = ip;
    t.vaddr = 0x100000000;
    t.paddr = 0x5000;
    t.type = AccessType::Load;
    t.offchip_pred = flp_pred;
    return t;
}

Packet
slpFill(const PredictionMeta &meta, MemLevel served)
{
    Packet p;
    p.type = AccessType::Prefetch;
    p.pred_meta = meta;
    p.served_by = served;
    return p;
}

} // namespace

TEST(Slp, InitiallyAllowsEverything)
{
    StatGroup stats("t");
    Slp slp({}, &stats);
    PredictionMeta meta;
    std::uint8_t fl = 1;
    EXPECT_TRUE(slp.allow(slpTrigger(0x400100), 0x100000000, 0x5000, 0, fl,
                          meta));
    EXPECT_TRUE(meta.valid);
    EXPECT_FALSE(meta.predicted_offchip);
}

TEST(Slp, LearnsToDropOffchipPrefetches)
{
    StatGroup stats("t");
    Slp::Params sp;
    sp.tau_pref = 8;
    sp.probation_period = 0;   // isolate the learning behaviour
    Slp slp(sp, &stats);

    Addr pa = 0x5000;
    int dropped = 0;
    for (int i = 0; i < 400; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 1;
        bool ok = slp.allow(slpTrigger(0x400100), 0x100000000, pa, 0, fl,
                            meta);
        if (ok)
            slp.onPrefetchFill(slpFill(meta, MemLevel::Dram));
        else
            ++dropped;
        pa += 64;
    }
    EXPECT_GT(dropped, 200);
    EXPECT_GT(stats.get("slp.dropped"), 200u);
}

TEST(Slp, KeepsAllowingOnchipPrefetches)
{
    StatGroup stats("t");
    Slp::Params sp;
    sp.probation_period = 0;
    Slp slp(sp, &stats);

    Addr pa = 0x5000;
    int dropped = 0;
    for (int i = 0; i < 400; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 1;
        bool ok = slp.allow(slpTrigger(0x400200), 0x100000000, pa, 0, fl,
                            meta);
        if (ok)
            slp.onPrefetchFill(slpFill(meta, MemLevel::L2C));
        else
            ++dropped;
        pa += 64;
    }
    EXPECT_EQ(dropped, 0);
}

TEST(Slp, ProbationKeepsTrainingAlive)
{
    StatGroup stats("t");
    Slp::Params sp;
    sp.tau_pref = 8;
    sp.probation_period = 16;
    Slp slp(sp, &stats);

    // Phase 1: prefetches go off-chip, SLP learns to drop.
    Addr pa = 0x5000;
    for (int i = 0; i < 300; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 1;
        if (slp.allow(slpTrigger(0x400100), 0x100000000, pa, 0, fl, meta))
            slp.onPrefetchFill(slpFill(meta, MemLevel::Dram));
        pa += 64;
    }
    // Phase 2: behaviour flips to on-chip; probation lets samples through
    // and the filter must recover.
    int allowed_tail = 0;
    for (int i = 0; i < 2000; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 1;
        if (slp.allow(slpTrigger(0x400100), 0x100000000, pa, 0, fl, meta)) {
            slp.onPrefetchFill(slpFill(meta, MemLevel::L2C));
            if (i >= 1500)
                ++allowed_tail;
        }
        pa += 64;
    }
    EXPECT_GT(allowed_tail, 400);   // mostly allowed again at the end
    EXPECT_GT(stats.get("slp.probation"), 0u);
}

TEST(Slp, FlpFeatureChangesDecisionSurface)
{
    StatGroup stats("t");
    Slp::Params sp;
    sp.probation_period = 0;
    Slp slp(sp, &stats);

    // Train: flp_pred=1 prefetches off-chip, flp_pred=0 on-chip, same PC.
    Addr pa = 0x5000;
    for (int i = 0; i < 500; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 1;
        bool pred = (i & 1) == 0;
        if (slp.allow(slpTrigger(0x400100, pred), 0x100000000, pa, 0, fl,
                      meta)) {
            slp.onPrefetchFill(
                slpFill(meta, pred ? MemLevel::Dram : MemLevel::L2C));
        }
        // Reuse a small set of physical lines so offsets repeat.
        pa = 0x5000 + ((pa + 64) & 0xfff);
    }
    PredictionMeta m1;
    PredictionMeta m2;
    std::uint8_t fl = 1;
    slp.allow(slpTrigger(0x400100, true), 0x100000000, 0x5040, 0, fl, m1);
    slp.allow(slpTrigger(0x400100, false), 0x100000000, 0x5040, 0, fl, m2);
    EXPECT_GT(m1.confidence, m2.confidence);
}

TEST(Slp, StorageNearPaperBudget)
{
    StatGroup stats("t");
    Slp slp({}, &stats);
    // Paper Table II: SLP = 3.29 KB.
    EXPECT_NEAR(slp.storage().totalKilobytes(), 3.29, 0.4);
}

// --- PPF -----------------------------------------------------------------------

TEST(Ppf, AcceptsByDefaultAtL2)
{
    StatGroup stats("t");
    Ppf ppf({}, &stats);
    PredictionMeta meta;
    std::uint8_t fl = 2;
    EXPECT_TRUE(ppf.allow(slpTrigger(0x400100), 0, 0x5000,
                          SppPrefetcher::packMeta(80, 0x123, 1), fl, meta));
    EXPECT_EQ(fl, 2);
}

TEST(Ppf, TrainsToRejectUselessPrefetches)
{
    StatGroup stats("t");
    Ppf::Params pp;
    pp.tau_reject = -8;
    Ppf ppf(pp, &stats);

    Addr pa = 0x5000;
    int rejected = 0;
    for (int i = 0; i < 600; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 2;
        bool ok = ppf.allow(slpTrigger(0x400100), 0, pa, 0, fl, meta);
        if (ok)
            ppf.onPrefetchedEvictUnused(pa);   // every prefetch useless
        else
            ++rejected;
        pa = 0x5000 + ((pa + 64) & 0x7fff);
    }
    EXPECT_GT(rejected, 100);
}

TEST(Ppf, DemotesMidConfidenceToLlc)
{
    StatGroup stats("t");
    Ppf::Params pp;
    pp.tau_accept = 4;
    pp.tau_reject = -100;   // never reject outright
    Ppf ppf(pp, &stats);

    // Drive weights slightly negative.
    Addr pa = 0x5000;
    for (int i = 0; i < 40; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 2;
        if (ppf.allow(slpTrigger(0x400100), 0, pa, 0, fl, meta))
            ppf.onPrefetchedEvictUnused(pa);
        pa += 64;
    }
    PredictionMeta meta;
    std::uint8_t fl = 2;
    ASSERT_TRUE(ppf.allow(slpTrigger(0x400100), 0, pa, 0, fl, meta));
    EXPECT_EQ(fl, 3);   // demoted to LLC fill
    EXPECT_GT(stats.get("ppf.demoted_llc"), 0u);
}

TEST(Ppf, RejectRecoveryViaDemandMiss)
{
    StatGroup stats("t");
    Ppf::Params pp;
    pp.tau_reject = -4;
    Ppf ppf(pp, &stats);

    // Teach it to reject this stream.
    Addr pa = 0x5000;
    for (int i = 0; i < 200; ++i) {
        PredictionMeta meta;
        std::uint8_t fl = 2;
        if (ppf.allow(slpTrigger(0x400100), 0, pa, 0, fl, meta))
            ppf.onPrefetchedEvictUnused(pa);
        pa += 64;
    }
    // Rejections recorded; demand misses on those addresses must push the
    // perceptron back toward accepting.
    std::uint64_t before = stats.get("ppf.train_missed_reject");
    PredictionMeta meta;
    std::uint8_t fl = 2;
    Addr target = pa;
    if (!ppf.allow(slpTrigger(0x400100), 0, target, 0, fl, meta)) {
        ppf.onDemandMiss(target, 0x400100);
        EXPECT_EQ(stats.get("ppf.train_missed_reject"), before + 1);
    }
}

TEST(Ppf, UsefulPrefetchTrainsPositive)
{
    StatGroup stats("t");
    Ppf ppf({}, &stats);
    PredictionMeta meta;
    std::uint8_t fl = 2;
    ASSERT_TRUE(ppf.allow(slpTrigger(0x400100), 0, 0x9000, 0, fl, meta));
    ppf.onDemandHitPrefetched(0x9000, 0x400100);
    EXPECT_EQ(stats.get("ppf.train_useful"), 1u);
}

TEST(Ppf, StorageIsAnOrderOfMagnitudeAboveTlp)
{
    StatGroup stats("t");
    Ppf ppf({}, &stats);
    // Paper §II-B: PPF ≈ 40 KB, vs 7 KB for all of TLP.
    EXPECT_GT(ppf.storage().totalKilobytes(), 25.0);
}

// --- Branch predictor -------------------------------------------------------

TEST(Bpred, LearnsBiasedBranches)
{
    StatGroup stats("t");
    BranchPredictor bp(&stats);
    int correct = 0;
    for (int i = 0; i < 2000; ++i)
        correct += bp.predictAndTrain(0x400100, true);
    EXPECT_GT(correct, 1900);
}

TEST(Bpred, LearnsAlternatingPattern)
{
    StatGroup stats("t");
    BranchPredictor bp(&stats);
    int correct_tail = 0;
    for (int i = 0; i < 4000; ++i) {
        bool taken = (i & 1) != 0;
        bool ok = bp.predictAndTrain(0x400104, taken);
        if (i >= 3000)
            correct_tail += ok;
    }
    EXPECT_GT(correct_tail, 900);   // history-based: near perfect
}

TEST(Bpred, LearnsLoopExitPattern)
{
    StatGroup stats("t");
    BranchPredictor bp(&stats);
    int correct_tail = 0;
    int total_tail = 0;
    for (int iter = 0; iter < 600; ++iter) {
        for (int i = 0; i < 8; ++i) {
            bool taken = i != 7;   // 7 taken, 1 not-taken (loop exit)
            bool ok = bp.predictAndTrain(0x400108, taken);
            if (iter >= 500) {
                correct_tail += ok;
                ++total_tail;
            }
        }
    }
    EXPECT_GT(correct_tail, total_tail * 9 / 10);
}

TEST(Bpred, RandomBranchesNearChance)
{
    StatGroup stats("t");
    BranchPredictor bp(&stats);
    Rng rng(5);
    int correct = 0;
    for (int i = 0; i < 4000; ++i)
        correct += bp.predictAndTrain(0x40010c, rng.chance(0.5));
    EXPECT_GT(correct, 1500);
    EXPECT_LT(correct, 2600);
}
