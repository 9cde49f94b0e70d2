/**
 * The declared-knob-schema layer: every registered component declares
 * its knobs; misspelled or wrongly-typed keys in forwarded subtrees
 * fail loudly naming the key and the valid knobs; declared knobs
 * round-trip through fromConfig/toConfig; the Runner fingerprint
 * captures effective (schema-default-expanded) knob values; --knobs
 * output covers every built-in component; and Config's consumed-key
 * tracking catches top-level typos.
 */

#include <gtest/gtest.h>

#include "common/knobs.hh"
#include "offchip/offchip_predictor.hh"
#include "prefetch/factory.hh"
#include "prefetch/next_line.hh"
#include "sim/runner.hh"
#include "sim/system_config.hh"

using namespace tlpsim;

namespace
{

const char *const kPrefetchers[] = {"next_line", "ipcp", "berti", "spp"};
const char *const kFilters[] = {"ppf", "slp"};
const char *const kOffchip[] = {"flp", "hermes"};

/** Expect @p fn to throw a ConfigError mentioning every @p needle. */
template <typename Fn>
void
expectConfigError(Fn &&fn, std::initializer_list<const char *> needles)
{
    try {
        fn();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        for (const char *needle : needles)
            EXPECT_NE(msg.find(needle), std::string::npos)
                << "missing '" << needle << "' in: " << msg;
    }
}

} // namespace

// --- every built-in declares a schema ---------------------------------------

TEST(KnobSchema, EveryBuiltinComponentDeclaresKnobs)
{
    auto expectDeclared = [](const KnobSchema &ks, const char *name) {
        EXPECT_FALSE(ks.specs().empty()) << name;
        for (const KnobSpec &s : ks.specs())
            EXPECT_FALSE(s.description.empty()) << name << "." << s.name;
    };
    for (const char *name : kPrefetchers)
        expectDeclared(prefetcherRegistry().knobs(name), name);
    for (const char *name : kFilters)
        expectDeclared(filterRegistry().knobs(name), name);
    for (const char *name : kOffchip)
        expectDeclared(offchipRegistry().knobs(name), name);
}

TEST(KnobSchema, DuplicateKnobNameIsRejected)
{
    using P = NextLinePrefetcher::Params;
    EXPECT_THROW((ParamSchema<P>{{"degree", &P::degree, "a"},
                                 {"degree", &P::degree, "b"}}),
                 ConfigError);
}

// The bound field fixes each knob's type, width and default, and
// parse()/render() move values through it both ways.
TEST(KnobSchema, BoundFieldsParseAndRender)
{
    struct P
    {
        std::string label = "x";
        int delta = -3;
        unsigned count = 7;
        std::uint64_t window = 60;
        bool on = true;
        double ratio = 0.5;
        OffchipPolicy policy = OffchipPolicy::Selective;
    };
    const ParamSchema<P> schema{
        {"label", &P::label, "a string"},
        {"delta", &P::delta, "an int"},
        {"count", &P::count, "an unsigned"},
        {"window", &P::window, "a 64-bit unsigned"},
        {"on", &P::on, "a flag"},
        {"ratio", &P::ratio, "a number"},
        {"policy", &P::policy, "an enum",
         {"immediate", "always_delay", "selective"}},
    };
    EXPECT_EQ(schema.defaults().serialize(),
              "count = 7\ndelta = -3\nlabel = x\non = true\n"
              "policy = selective\nratio = 0.5\nwindow = 60\n");
    EXPECT_EQ(schema.find("delta")->type, KnobType::Int);
    EXPECT_EQ(schema.find("count")->bits, 32u);
    EXPECT_EQ(schema.find("window")->bits, 64u);
    EXPECT_EQ(schema.find("policy")->type, KnobType::String);

    Config set = Config::parse("label = y\ndelta = 5\ncount = 9\n"
                               "window = 8589934592\non = false\n"
                               "ratio = 0.25\npolicy = always_delay\n");
    P p = schema.parse(set);
    EXPECT_EQ(p.label, "y");
    EXPECT_EQ(p.delta, 5);
    EXPECT_EQ(p.count, 9u);
    EXPECT_EQ(p.window, 8589934592u);
    EXPECT_FALSE(p.on);
    EXPECT_EQ(p.ratio, 0.25);
    EXPECT_EQ(p.policy, OffchipPolicy::AlwaysDelay);
    Config dumped;
    schema.render(p, dumped);
    EXPECT_EQ(dumped, set);

    // A prefixed parse reads only its own keys, consuming exactly them.
    Config mixed = Config::parse("blk.count = 2\nblk.cuont = 3\n");
    P q;
    schema.parse(mixed, q, "blk.");
    EXPECT_EQ(q.count, 2u);
    EXPECT_EQ(mixed.unconsumedKeys(), std::vector<std::string>{"blk.cuont"});
    expectConfigError(
        [&] { schema.parse(Config::parse("policy = sometimes\n")); },
        {"policy", "sometimes", "always_delay"});
}

// --- registry build()-time validation ---------------------------------------

TEST(KnobSchema, BuildRejectsUndeclaredKnobNamingValidOnes)
{
    Config cfg;
    cfg.set("degre", 2);
    expectConfigError(
        [&] { prefetcherRegistry().build("next_line", cfg); },
        {"degre", "prefetcher 'next_line'", "degree"});
}

TEST(KnobSchema, BuildRejectsWrongTypeNamingValidKnobs)
{
    Config cfg;
    cfg.set("degree", "lots");
    expectConfigError(
        [&] { prefetcherRegistry().build("next_line", cfg); },
        {"degree", "lots", "unsigned", "declared knobs"});
}

// --- forwarded-subtree validation in fromConfig -----------------------------

TEST(KnobSchema, MisspelledOffchipSubtreeKeyFailsNamingKnobs)
{
    Config c = Config::parse("scheme = hermes\n"
                             "scheme.offchip.tau_hgih = 1\n");
    expectConfigError(
        [&] { SystemConfig::fromConfig(c); },
        {"scheme.offchip.tau_hgih", "off-chip predictor 'hermes'",
         "tau_high", "tau_low", "policy"});
}

TEST(KnobSchema, WrongTypedSubtreeValueFailsNamingKnobs)
{
    Config c = Config::parse("scheme = tlp\n"
                             "scheme.l1_filter.probation_period = soon\n");
    expectConfigError(
        [&] { SystemConfig::fromConfig(c); },
        {"scheme.l1_filter.probation_period", "soon", "unsigned",
         "prefetch filter 'slp'", "tau_pref"});
}

TEST(KnobSchema, OutOfRangeValueFailsUpFrontAtDeclaredWidth)
{
    // 2^32 parses as a 64-bit integer but the builder extracts 32-bit:
    // the up-front check must validate at the declared width, before
    // any simulation starts, naming the key.
    Config c = Config::parse("l1d.prefetcher.cs_degree = 4294967296\n");
    expectConfigError([&] { SystemConfig::fromConfig(c); },
                      {"l1d.prefetcher.cs_degree", "4294967296",
                       "32-bit", "prefetcher 'ipcp'"});
}

TEST(KnobSchema, EnumeratedStringKnobRejectsUnknownChoiceUpFront)
{
    Config c = Config::parse("scheme = hermes\n"
                             "scheme.offchip.policy = banana\n");
    expectConfigError([&] { SystemConfig::fromConfig(c); },
                      {"scheme.offchip.policy", "banana", "one of",
                       "immediate", "selective"});
}

TEST(KnobSchema, PrefetcherSubtreeTypoFailsNamingKnobs)
{
    Config c = Config::parse("l1d.prefetcher.cs_degre = 8\n");
    expectConfigError([&] { SystemConfig::fromConfig(c); },
                      {"l1d.prefetcher.cs_degre", "prefetcher 'ipcp'",
                       "cs_degree"});
}

TEST(KnobSchema, SubtreeUnderEmptyPrefetcherSlotIsRejected)
{
    Config c = Config::parse("l2.prefetcher = none\n"
                             "l2.prefetcher.aggressive = true\n");
    expectConfigError([&] { SystemConfig::fromConfig(c); },
                      {"l2.prefetcher.aggressive", "none"});
}

TEST(KnobSchema, AllOffendersAreCollectedIntoOneError)
{
    Config c = Config::parse("scheme = tlp\n"
                             "scheme.offchip.tau_hgih = 1\n"
                             "scheme.l1_filter.probation_perod = 3\n");
    expectConfigError(
        [&] { SystemConfig::fromConfig(c); },
        {"scheme.offchip.tau_hgih", "scheme.l1_filter.probation_perod"});
}

TEST(KnobSchema, ValidSubtreeKeysStillReachTheBuilders)
{
    // The legitimate sweep path must be untouched by validation.
    Config c = Config::parse("scheme = tlp\n"
                             "scheme.offchip.tau_high = 12\n"
                             "l1d.prefetcher.cs_degree = 2\n");
    SystemConfig cfg = SystemConfig::fromConfig(c);
    EXPECT_EQ(cfg.scheme.offchip_params.getString("tau_high"), "12");
    EXPECT_EQ(cfg.scheme.offchipBuildConfig().getString("tau_high"), "12");
    EXPECT_EQ(cfg.l1PrefetcherBuildConfig().getString("cs_degree"), "2");
}

// --- declared knobs round-trip through fromConfig/toConfig ------------------

TEST(KnobSchema, PrefetcherKnobsRoundTrip)
{
    for (const char *name : kPrefetchers) {
        Config c;
        c.set("l1d.prefetcher", name);
        Config defs = prefetcherRegistry().knobs(name).defaults();
        for (const std::string &k : defs.keys())
            c.set("l1d.prefetcher." + k, defs.getString(k));

        SystemConfig cfg = SystemConfig::fromConfig(c);
        Config dump = cfg.toConfig();
        for (const std::string &k : defs.keys()) {
            EXPECT_EQ(dump.getString("l1d.prefetcher." + k),
                      defs.getString(k))
                << name << "." << k;
        }
        SystemConfig rebuilt
            = SystemConfig::fromConfig(Config::parse(dump.serialize()));
        EXPECT_EQ(rebuilt.l1_pf_params, cfg.l1_pf_params) << name;
        EXPECT_EQ(experiment::configKey(rebuilt), experiment::configKey(cfg))
            << name;
    }
}

TEST(KnobSchema, FilterAndOffchipKnobsRoundTrip)
{
    auto roundTrip = [](const Config &c, const char *label) {
        SystemConfig cfg = SystemConfig::fromConfig(c);
        SystemConfig rebuilt = SystemConfig::fromConfig(
            Config::parse(cfg.toConfig().serialize()));
        EXPECT_EQ(rebuilt.scheme, cfg.scheme) << label;
        EXPECT_EQ(experiment::configKey(rebuilt), experiment::configKey(cfg))
            << label;
    };
    for (const char *name : kFilters) {
        Config c;
        c.set("scheme.l2_filter", name);
        Config defs = filterRegistry().knobs(name).defaults();
        for (const std::string &k : defs.keys())
            c.set("scheme.l2_filter." + k, defs.getString(k));
        roundTrip(c, name);
    }
    for (const char *name : kOffchip) {
        Config c;
        c.set("scheme.offchip", name);
        Config defs = offchipRegistry().knobs(name).defaults();
        for (const std::string &k : defs.keys())
            c.set("scheme.offchip." + k, defs.getString(k));
        roundTrip(c, name);
    }
}

// --- the fingerprint captures effective knob values -------------------------

TEST(KnobSchema, FingerprintExpandsSchemaDefaults)
{
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.scheme = SchemeConfig::fromName("hermes");
    std::string key = experiment::configKey(cfg);
    // Knobs the user never set appear at their effective values, here
    // hermes' declared defaults (tau_high = 4, tau_low), so a changed
    // component default changes the fingerprint.
    EXPECT_NE(key.find("scheme.offchip.tau_high = 4"), std::string::npos)
        << key;
    EXPECT_NE(key.find("scheme.offchip.tau_low = "), std::string::npos)
        << key;
    EXPECT_NE(key.find("l1d.prefetcher.cs_degree = 4"), std::string::npos)
        << key;
    // The per-cpu stat name is construction detail, not design point.
    EXPECT_EQ(key.find("scheme.offchip.name"), std::string::npos) << key;
}

TEST(KnobSchema, EffectiveConfigIsIdempotentForEveryPreset)
{
    for (const std::string &name : SchemeConfig::names()) {
        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.scheme = SchemeConfig::fromName(name);
        Config eff = cfg.effectiveConfig();
        SystemConfig rebuilt
            = SystemConfig::fromConfig(Config::parse(eff.serialize(), name));
        EXPECT_EQ(rebuilt.effectiveConfig(), eff) << name;

        // The --print-config dump reproduces itself byte for byte.
        std::string dump = cfg.dumpConfig().serialize();
        EXPECT_EQ(SystemConfig::fromConfig(Config::parse(dump, name))
                      .dumpConfig()
                      .serialize(),
                  dump)
            << name;
    }
}

// --- --knobs reference ------------------------------------------------------

TEST(KnobReference, CoversEveryBuiltinComponent)
{
    std::string all = knobReference();
    for (const char *name : kPrefetchers)
        EXPECT_NE(all.find(std::string("prefetcher ") + name),
                  std::string::npos)
            << name;
    for (const char *name : kFilters)
        EXPECT_NE(all.find(std::string("prefetch filter ") + name),
                  std::string::npos)
            << name;
    for (const char *name : kOffchip)
        EXPECT_NE(all.find(std::string("off-chip predictor ") + name),
                  std::string::npos)
            << name;
    // Spot-check knob lines made it through.
    EXPECT_NE(all.find("tau_accept"), std::string::npos);
    EXPECT_NE(all.find("probation_period"), std::string::npos);
}

TEST(KnobReference, FiltersToOneComponent)
{
    std::string hermes = knobReference("hermes");
    EXPECT_NE(hermes.find("tau_high"), std::string::npos);
    EXPECT_EQ(hermes.find("berti"), std::string::npos);
    expectConfigError([&] { knobReference("athena"); },
                      {"athena", "berti", "ppf", "hermes"});
}

// --- Config consumed-key tracking -------------------------------------------

TEST(ConfigConsumed, GettersAndSubMarkKeys)
{
    Config c = Config::parse("a = 1\nb.x = 2\nb.y = 3\nstray = 4\n");
    EXPECT_EQ(c.unconsumedKeys().size(), 4u);
    c.getInt("a", 0);
    c.sub("b");
    std::vector<std::string> stray = c.unconsumedKeys();
    ASSERT_EQ(stray.size(), 1u);
    EXPECT_EQ(stray.front(), "stray");
    c.getInt("stray", 0);
    EXPECT_TRUE(c.unconsumedKeys().empty());
    // has() probes without consuming; set() resets the mark.
    c.set("a", 5);
    EXPECT_EQ(c.unconsumedKeys(), std::vector<std::string>{"a"});
    c.has("a");
    EXPECT_EQ(c.unconsumedKeys().size(), 1u);
}

TEST(ConfigConsumed, EqualityIgnoresConsumedMarks)
{
    Config a = Config::parse("k = 1\n");
    Config b = Config::parse("k = 1\n");
    a.getInt("k", 0);
    EXPECT_EQ(a, b);
}
