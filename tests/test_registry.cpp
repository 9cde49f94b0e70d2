/**
 * The component registry: listings, error messages, out-of-tree
 * registration, and the equivalence guarantee — every registry-built
 * filter and off-chip predictor behaves identically (same name(), same
 * decisions, same stats after a fixed trigger sequence) to one
 * constructed directly from its Params.
 */

#include <gtest/gtest.h>

#include "filter/ppf.hh"
#include "offchip/offchip_predictor.hh"
#include "offchip/slp.hh"
#include "prefetch/factory.hh"
#include "prefetch/next_line.hh"
#include "prefetch/spp.hh"

using namespace tlpsim;

namespace
{

/** A fixed, deterministic demand-access sequence: strided loads from a
 *  few IPs plus an irregular tail, enough to exercise every prefetcher's
 *  training path. */
std::vector<PrefetchTrigger>
triggerSequence()
{
    std::vector<PrefetchTrigger> seq;
    Cycle now = 100;
    for (unsigned i = 0; i < 64; ++i) {
        PrefetchTrigger t;
        t.ip = 0x400100 + (i % 3) * 8;
        t.vaddr = 0x10000 + i * 64 * (1 + i % 3);
        t.paddr = 0x90000 + i * 64 * (1 + i % 3);
        t.type = AccessType::Load;
        t.cache_hit = i % 4 != 0;
        t.now = now;
        now += 7;
        seq.push_back(t);
    }
    for (unsigned i = 0; i < 16; ++i) {
        PrefetchTrigger t;
        t.ip = 0x400200;
        t.vaddr = 0x40000 + (i * 2654435761u) % 0x8000;
        t.paddr = 0xa0000 + (i * 2654435761u) % 0x8000;
        t.type = AccessType::Load;
        t.now = now;
        now += 11;
        seq.push_back(t);
    }
    return seq;
}

} // namespace

// --- registry surface -------------------------------------------------------

TEST(Registry, BuiltinsAreRegistered)
{
    for (const char *name : {"next_line", "ipcp", "berti", "spp"})
        EXPECT_TRUE(prefetcherRegistry().contains(name)) << name;
    for (const char *name : {"ppf", "slp"})
        EXPECT_TRUE(filterRegistry().contains(name)) << name;
    for (const char *name : {"flp", "hermes"})
        EXPECT_TRUE(offchipRegistry().contains(name)) << name;
}

TEST(Registry, UnknownNameListsValidNames)
{
    try {
        prefetcherRegistry().build("stride_wizard", Config{});
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("stride_wizard"), std::string::npos) << msg;
        EXPECT_NE(msg.find("berti"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ipcp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("next_line"), std::string::npos) << msg;
        EXPECT_NE(msg.find("spp"), std::string::npos) << msg;
    }
}

namespace
{

using NextLineParams = NextLinePrefetcher::Params;

/** An out-of-tree next-line variant's bound schema: degree 4 default. */
const ParamSchema<NextLineParams> &
nextLineX4Knobs()
{
    static const ParamSchema<NextLineParams> schema(
        {{"degree", &NextLineParams::degree, "lines prefetched ahead"}},
        NextLineParams{4});
    return schema;
}

} // namespace

TEST(Registry, DuplicateRegistrationIsRejected)
{
    EXPECT_THROW(prefetcherRegistry().add(
                     "ipcp", nextLineX4Knobs(),
                     [](const Config &) -> std::unique_ptr<Prefetcher>
                     { return nullptr; }),
                 ConfigError);
}

TEST(Registry, OutOfTreeComponentDropsIn)
{
    // The extensibility story: a new backend is one registration away.
    if (!prefetcherRegistry().contains("test_next_line_x4")) {
        prefetcherRegistry().add(
            "test_next_line_x4", nextLineX4Knobs(), [](const Config &cfg) {
                return std::make_unique<NextLinePrefetcher>(
                    nextLineX4Knobs().parse(cfg));
            });
    }
    auto pf = prefetcherRegistry().build("test_next_line_x4", Config{});
    ASSERT_NE(pf, nullptr);
    PrefetchTrigger t;
    t.vaddr = 0x1000;
    t.type = AccessType::Load;
    std::vector<PrefetchCandidate> out;
    pf->onAccess(t, out);
    EXPECT_EQ(out.size(), 4u);
}

TEST(Registry, BuilderConfigOverridesParams)
{
    Config cfg;
    cfg.set("cs_degree", 1);
    cfg.set("table_scale_shift", 1);
    auto pf = prefetcherRegistry().build("ipcp", cfg);
    ASSERT_NE(pf, nullptr);
    // A scaled IPCP has strictly more table storage than the default.
    auto base = prefetcherRegistry().build("ipcp", Config{});
    EXPECT_GT(pf->storage().totalBits(), base->storage().totalBits());
}

// --- direct == registry equivalence -----------------------------------------

TEST(RegistryEquivalence, PpfFilter)
{
    StatGroup sa("a");
    StatGroup sb("b");
    Ppf::Params p;
    p.name = "f";
    Ppf direct(p, &sa);
    Config cfg;
    cfg.set("name", "f");
    auto reg = filterRegistry().build("ppf", cfg, &sb);
    ASSERT_NE(reg, nullptr);
    EXPECT_STREQ(direct.name(), reg->name());
    EXPECT_EQ(direct.storage().totalBits(), reg->storage().totalBits());

    for (const PrefetchTrigger &t : triggerSequence()) {
        Addr pf_paddr = t.paddr + 128;
        std::uint32_t meta32 = SppPrefetcher::packMeta(
            60 + t.paddr % 40, static_cast<std::uint16_t>(t.ip), 1);
        std::uint8_t fl_a = 2;
        std::uint8_t fl_b = 2;
        PredictionMeta ma;
        PredictionMeta mb;
        bool ra = direct.allow(t, 0, pf_paddr, meta32, fl_a, ma);
        bool rb = reg->allow(t, 0, pf_paddr, meta32, fl_b, mb);
        EXPECT_EQ(ra, rb);
        EXPECT_EQ(fl_a, fl_b);
        // Training hooks: alternate useful / useless / missed-reject.
        if (t.paddr % 3 == 0) {
            direct.onDemandHitPrefetched(pf_paddr, t.ip);
            reg->onDemandHitPrefetched(pf_paddr, t.ip);
        } else if (t.paddr % 3 == 1) {
            direct.onPrefetchedEvictUnused(pf_paddr);
            reg->onPrefetchedEvictUnused(pf_paddr);
        } else {
            direct.onDemandMiss(pf_paddr, t.ip);
            reg->onDemandMiss(pf_paddr, t.ip);
        }
    }
    EXPECT_EQ(sa.dump(), sb.dump());
}

TEST(RegistryEquivalence, SlpFilter)
{
    StatGroup sa("a");
    StatGroup sb("b");
    Slp::Params p;
    p.name = "f";
    Slp direct(p, &sa);
    Config cfg;
    cfg.set("name", "f");
    auto reg = filterRegistry().build("slp", cfg, &sb);
    ASSERT_NE(reg, nullptr);
    EXPECT_STREQ(direct.name(), reg->name());
    EXPECT_EQ(direct.storage().totalBits(), reg->storage().totalBits());

    for (const PrefetchTrigger &t : triggerSequence()) {
        Addr pf_vaddr = t.vaddr + 128;
        Addr pf_paddr = t.paddr + 128;
        std::uint8_t fl_a = 1;
        std::uint8_t fl_b = 1;
        PredictionMeta ma;
        PredictionMeta mb;
        bool ra = direct.allow(t, pf_vaddr, pf_paddr, 0, fl_a, ma);
        bool rb = reg->allow(t, pf_vaddr, pf_paddr, 0, fl_b, mb);
        EXPECT_EQ(ra, rb);
        EXPECT_EQ(ma.predicted_offchip, mb.predicted_offchip);
        if (ra) {
            Packet fill;
            fill.paddr = pf_paddr;
            fill.pred_meta = ma;
            fill.served_by
                = t.paddr % 2 == 0 ? MemLevel::Dram : MemLevel::L2C;
            direct.onPrefetchFill(fill);
            fill.pred_meta = mb;
            reg->onPrefetchFill(fill);
        }
    }
    EXPECT_EQ(sa.dump(), sb.dump());
}

TEST(RegistryEquivalence, OffchipPredictors)
{
    for (const char *name : {"flp", "hermes"}) {
        StatGroup sa("a");
        StatGroup sb("b");
        OffChipPredictor::Params p;
        p.name = "pred";
        if (std::string(name) == "hermes") {
            p.policy = OffchipPolicy::Immediate;
            p.tau_high = 4;
        }
        OffChipPredictor direct(p, &sa);
        Config cfg;
        cfg.set("name", "pred");
        auto reg = offchipRegistry().build(name, cfg, &sb);
        ASSERT_NE(reg, nullptr);
        EXPECT_EQ(direct.storage().totalBits(), reg->storage().totalBits());

        for (const PrefetchTrigger &t : triggerSequence()) {
            auto da = direct.predictLoad(t.ip, t.vaddr);
            auto db = reg->predictLoad(t.ip, t.vaddr);
            EXPECT_EQ(da.spec_now, db.spec_now) << name;
            EXPECT_EQ(da.delayed_flag, db.delayed_flag) << name;
            EXPECT_EQ(da.predicted_offchip, db.predicted_offchip) << name;
            bool went_offchip = t.paddr % 2 == 0;
            direct.train(da.meta, went_offchip);
            reg->train(db.meta, went_offchip);
        }
        EXPECT_EQ(sa.dump(), sb.dump()) << name;
    }
}

// The "hermes" registration differs from "flp" only in its defaults —
// explicit config wins, so a fully-specified subtree builds identical
// predictors under either name (what the Simulator relies on).
TEST(RegistryEquivalence, HermesDefaultsAreImmediate)
{
    StatGroup s("s");
    auto hermes = offchipRegistry().build("hermes", Config{}, &s);
    EXPECT_EQ(hermes->params().policy, OffchipPolicy::Immediate);
    EXPECT_EQ(hermes->params().tau_high, 4);
    StatGroup s2("s2");
    auto flp = offchipRegistry().build("flp", Config{}, &s2);
    EXPECT_EQ(flp->params().policy, OffchipPolicy::Selective);
}
