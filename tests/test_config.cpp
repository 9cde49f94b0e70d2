/**
 * The declarative configuration surface: Config parsing/serialization,
 * SystemConfig::fromConfig/toConfig round trips for every shipped scheme
 * preset, the configs/ preset files, error paths with actionable
 * messages, and CLI-path vs bench-path design-point equivalence.
 */

#include <gtest/gtest.h>

#include <functional>

#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "workloads/workload.hh"

using namespace tlpsim;

// --- Config basics ----------------------------------------------------------

TEST(Config, ParseAndTypedGetters)
{
    Config c = Config::parse("a = 1\n"
                             "b.c = 2.5   # trailing comment\n"
                             "\n"
                             "# full-line comment\n"
                             "d = true\n"
                             "e = hello\n");
    EXPECT_EQ(c.getInt("a", 0), 1);
    EXPECT_DOUBLE_EQ(c.getDouble("b.c", 0.0), 2.5);
    EXPECT_TRUE(c.getBool("d", false));
    EXPECT_EQ(c.getString("e"), "hello");
    EXPECT_EQ(c.getInt("missing", 42), 42);
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, SerializeRoundTrip)
{
    Config c;
    c.set("x.y", 7);
    c.set("x.z", true);
    c.set("w", 12.8);
    c.set("s", "spp");
    EXPECT_EQ(Config::parse(c.serialize()), c);
}

TEST(Config, MergeLaterWins)
{
    Config base = Config::parse("a = 1\nb = 2\n");
    base.merge(Config::parseAssignments("b=3, c=4"));
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 3);
    EXPECT_EQ(base.getInt("c", 0), 4);
}

TEST(Config, SubStripsPrefix)
{
    Config c = Config::parse("scheme.name = tlp\n"
                             "scheme.offchip.tau_high = 9\ncores = 1\n");
    Config s = c.sub("scheme");
    EXPECT_EQ(s.getString("name"), "tlp");
    EXPECT_EQ(s.getInt("offchip.tau_high", 0), 9);
    EXPECT_FALSE(s.has("cores"));
}

TEST(Config, ListValuedKeys)
{
    // Config-file style (commas), assignment style ('+', where ','
    // already separates assignments), and whitespace all split.
    Config c = Config::parse("mix.a = bfs.kron, mcf_pchase\n"
                             "mix.b = bfs.kron+mcf_pchase\n"
                             "mix.c = bfs.kron mcf_pchase\n");
    std::vector<std::string> want{"bfs.kron", "mcf_pchase"};
    EXPECT_EQ(c.getStringList("mix.a"), want);
    EXPECT_EQ(c.getStringList("mix.b"), want);
    EXPECT_EQ(c.getStringList("mix.c"), want);
    EXPECT_EQ(c.getStringList("missing", {"x"}),
              std::vector<std::string>{"x"});

    // set(vector) round-trips through serialize/parse.
    Config d;
    d.set("workload.mix", want);
    EXPECT_EQ(Config::parse(d.serialize()).getStringList("workload.mix"),
              want);

    // The '+'-separated form survives the --set assignment syntax.
    Config e = Config::parseAssignments(
        "workload.mix=bfs.kron+mcf_pchase, cores=2");
    EXPECT_EQ(e.getStringList("workload.mix"), want);
    EXPECT_EQ(e.getInt("cores", 0), 2);
}

TEST(Config, ParseErrorsNameTheLine)
{
    try {
        Config::parse("a = 1\nwhat is this\n", "bad.conf");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.conf:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Config, BadValueErrorsNameKeyAndValue)
{
    // Each getter names its own range, for malformed values as well as
    // out-of-range ones.
    Config c = Config::parse("cores = banana\nbig = 4294967296\n");
    auto expectError = [](auto &&get, const char *key, const char *value,
                          const char *range) {
        try {
            get();
            FAIL() << "expected ConfigError for " << key << " = " << value;
        } catch (const ConfigError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(key), std::string::npos) << msg;
            EXPECT_NE(msg.find(value), std::string::npos) << msg;
            EXPECT_NE(msg.find(range), std::string::npos) << msg;
        }
    };
    expectError([&] { c.getUnsigned("cores", 1); }, "cores", "banana",
                "a 64-bit non-negative integer");
    expectError([&] { c.getInt("cores", 1); }, "cores", "banana",
                "a 64-bit integer");
    expectError([&] { c.getUnsigned32("cores", 1); }, "cores", "banana",
                "a 32-bit non-negative integer");
    expectError([&] { c.getInt32("cores", 1); }, "cores", "banana",
                "a 32-bit integer");
    expectError([&] { c.getUnsigned32("big", 1); }, "big", "4294967296",
                "a 32-bit non-negative integer");
    expectError([&] { c.getInt32("big", 1); }, "big", "4294967296",
                "a 32-bit integer");
}

// --- scheme presets ---------------------------------------------------------

TEST(SchemeConfig, ElevenShippedPresets)
{
    EXPECT_EQ(SchemeConfig::names().size(), 11u);
}

TEST(SchemeConfig, UnknownNameListsValidNames)
{
    try {
        SchemeConfig::fromName("nope");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tlp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("hermes+ppf"), std::string::npos) << msg;
    }
}

// The satellite requirement: parse -> SystemConfig -> toConfig -> parse is
// the identity for every shipped scheme.
TEST(SystemConfig, RoundTripsEveryScheme)
{
    for (const std::string &name : SchemeConfig::names()) {
        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.scheme = SchemeConfig::fromName(name);

        Config dumped = cfg.toConfig();
        Config reparsed = Config::parse(dumped.serialize(), name);
        SystemConfig rebuilt = SystemConfig::fromConfig(reparsed);

        EXPECT_EQ(rebuilt.toConfig(), dumped) << name;
        EXPECT_EQ(rebuilt.scheme, cfg.scheme) << name;
        EXPECT_EQ(rebuilt.l1_prefetcher, cfg.l1_prefetcher) << name;
    }
}

TEST(SystemConfig, SchemeShorthandSelectsPreset)
{
    Config c = Config::parse("scheme = tlp\n");
    EXPECT_EQ(SystemConfig::fromConfig(c).scheme,
              SchemeConfig::fromName("tlp"));

    // Explicit scheme.* keys override the preset.
    Config c2
        = Config::parse("scheme = flp\nscheme.offchip.tau_high = 11\n");
    SystemConfig cfg = SystemConfig::fromConfig(c2);
    EXPECT_EQ(cfg.scheme.offchipBuildConfig().getString("tau_high"), "11");
    EXPECT_EQ(cfg.scheme.offchipBuildConfig().getString("policy"),
              "immediate");
    EXPECT_EQ(cfg.scheme.offchip, "flp");
}

TEST(SystemConfig, MultiCoreDefaultsFollowCores)
{
    SystemConfig c = SystemConfig::fromConfig(Config::parse("cores = 4\n"));
    EXPECT_EQ(c.num_cores, 4u);
    EXPECT_DOUBLE_EQ(c.dram_gbps_per_core, 3.2);
}

// Every configs/*.conf preset file must build the same SchemeConfig as the
// in-code preset of the same name, so the shipped files can never rot.
TEST(SystemConfig, ShippedPresetFilesMatchCodePresets)
{
    for (const std::string &name : SchemeConfig::names()) {
        std::string path
            = std::string(TLPSIM_CONFIGS_DIR) + "/" + name + ".conf";
        SystemConfig cfg = SystemConfig::fromConfig(Config::parseFile(path));
        EXPECT_EQ(cfg.scheme, SchemeConfig::fromName(name)) << path;
    }
}

// A slot cfg refills with another component starts from an empty
// subtree: the preset's knobs for it tuned the component it replaces.
// Restating the same component keeps them.
TEST(SchemeConfig, SwappedSlotDropsPresetKnobs)
{
    const SchemeConfig tsp = SchemeConfig::fromName("tsp");
    SchemeConfig no_filter
        = SchemeConfig::fromConfig(Config::parse("l1_filter = none\n"), tsp);
    EXPECT_FALSE(no_filter.hasL1Filter());
    EXPECT_TRUE(no_filter.l1_filter_params.empty());
    EXPECT_EQ(no_filter.offchip_params, tsp.offchip_params);

    SchemeConfig hermes
        = SchemeConfig::fromConfig(Config::parse("offchip = hermes\n"), tsp);
    EXPECT_EQ(hermes.offchip, "hermes");
    EXPECT_TRUE(hermes.offchip_params.empty());

    EXPECT_EQ(SchemeConfig::fromConfig(Config::parse("offchip = flp\n"), tsp),
              tsp);
}

// Config layers (files < --set): a layer that names another component
// for a slot drops the lower layers' knobs for it, so a preset file or a
// --print-config dump stays editable.
TEST(SystemConfig, LayerSwappingAComponentDropsItsKnobs)
{
    Config merged = Config::parseFile(TLPSIM_CONFIGS_DIR "/tsp.conf");
    SystemConfig::overlay(
        merged, Config::parseAssignments(
                    "scheme.l1_filter=none, scheme.offchip=hermes"));
    SystemConfig cfg = SystemConfig::fromConfig(merged);
    EXPECT_FALSE(cfg.scheme.hasL1Filter());
    EXPECT_TRUE(cfg.scheme.l1_filter_params.empty());
    EXPECT_EQ(cfg.scheme.offchip, "hermes");
    EXPECT_TRUE(cfg.scheme.offchip_params.empty());

    // A dump expands ipcp's knobs; replacing or emptying the prefetcher
    // must not trip over them.
    for (const char *pf : {"berti", "none"}) {
        Config dump = SystemConfig::cascadeLake(1).dumpConfig();
        SystemConfig::overlay(
            dump, Config::parseAssignments(std::string("l1d.prefetcher=")
                                           + pf));
        EXPECT_NO_THROW(SystemConfig::fromConfig(dump)) << pf;
    }

    Config same = Config::parseFile(TLPSIM_CONFIGS_DIR "/tsp.conf");
    SystemConfig::overlay(same,
                          Config::parseAssignments("scheme.offchip=flp"));
    EXPECT_EQ(SystemConfig::fromConfig(same).scheme,
              SchemeConfig::fromName("tsp"));
}

// A layer naming a scheme preset replaces the lower layers' whole scheme
// (their "scheme" and every scheme.* key), while scheme.* keys in the
// shorthand's own layer still tune the preset.
TEST(SystemConfig, LayerNamingASchemeReplacesTheLowerScheme)
{
    Config merged = Config::parseFile(TLPSIM_CONFIGS_DIR "/tsp.conf");
    SystemConfig::overlay(merged, Config::parseAssignments("scheme=hermes"));
    EXPECT_EQ(SystemConfig::fromConfig(merged).scheme,
              SchemeConfig::fromName("hermes"));

    Config tuned = Config::parseFile(TLPSIM_CONFIGS_DIR "/tsp.conf");
    SystemConfig::overlay(
        tuned, Config::parseAssignments(
                   "scheme=hermes, scheme.offchip.tau_high=3"));
    SystemConfig cfg = SystemConfig::fromConfig(tuned);
    EXPECT_EQ(cfg.scheme.name, "hermes");
    EXPECT_EQ(cfg.scheme.offchip, "hermes");
    EXPECT_FALSE(cfg.scheme.hasL1Filter());
    EXPECT_EQ(cfg.scheme.offchip_params.keys(),
              std::vector<std::string>{"tau_high"});
    EXPECT_EQ(cfg.scheme.offchip_params.getString("tau_high"), "3");

    // A lower shorthand is replaced the same way.
    Config shorthand = Config::parse("scheme = tsp\n");
    SystemConfig::overlay(shorthand,
                          Config::parseAssignments("scheme=hermes"));
    EXPECT_EQ(SystemConfig::fromConfig(shorthand).scheme,
              SchemeConfig::fromName("hermes"));
}

// A --print-config dump reused as the base config of a --scheme / --sweep
// grid must give each preset its own design point: the L2 prefetcher's
// aggressive flag follows the selected scheme, not the dumped one.
TEST(SystemConfig, DumpReusedUnderAnotherSchemeMatchesThePreset)
{
    for (const char *dumped : {"baseline", "ppf"}) {
        SystemConfig src = SystemConfig::cascadeLake(1);
        src.scheme = SchemeConfig::fromName(dumped);
        const SystemConfig base = SystemConfig::fromConfig(
            Config::parse(src.dumpConfig().serialize(), dumped));
        for (const std::string &name : SchemeConfig::names()) {
            SystemConfig reused = base;
            reused.scheme = SchemeConfig::fromName(name);
            SystemConfig plain = SystemConfig::cascadeLake(1);
            plain.scheme = SchemeConfig::fromName(name);
            EXPECT_EQ(experiment::configKey(reused),
                      experiment::configKey(plain))
                << dumped << " dump under --scheme " << name;
        }
    }

    // A flag the user set is theirs, and the dump keeps it.
    SystemConfig set = SystemConfig::fromConfig(
        Config::parse("l2.prefetcher.aggressive = true\n"));
    EXPECT_EQ(set.dumpConfig().getString("l2.prefetcher.aggressive"),
              "true");
}

// Arbitrary per-component subtrees: scheme.offchip.* / scheme.l1_filter.*
// (and l1d.prefetcher.* / l2.prefetcher.*) keys SchemeConfig has never
// heard of must round-trip, fingerprint distinctly, and reach the
// registry builders.
TEST(SystemConfig, ComponentSubtreesRoundTripAndFingerprint)
{
    Config c = Config::parse("scheme = tlp\n"
                             "scheme.offchip.table_scale_shift = 1\n"
                             "scheme.l1_filter.probation_period = 7\n"
                             "l1d.prefetcher.region_lines = 16\n");
    SystemConfig cfg = SystemConfig::fromConfig(c);
    EXPECT_EQ(cfg.scheme.offchip_params.getString("table_scale_shift"),
              "1");
    EXPECT_EQ(cfg.scheme.l1_filter_params.getString("probation_period"),
              "7");
    EXPECT_EQ(cfg.l1_pf_params.getString("region_lines"), "16");

    // toConfig emits the subtree keys, so fromConfig(toConfig()) is the
    // identity and the Runner fingerprint separates the design points.
    Config dumped = cfg.toConfig();
    EXPECT_EQ(dumped.getString("scheme.l1_filter.probation_period"), "7");
    SystemConfig rebuilt
        = SystemConfig::fromConfig(Config::parse(dumped.serialize()));
    EXPECT_EQ(rebuilt.toConfig(), dumped);
    EXPECT_EQ(rebuilt.scheme, cfg.scheme);

    SystemConfig plain
        = SystemConfig::fromConfig(Config::parse("scheme = tlp\n"));
    EXPECT_NE(experiment::configKey(cfg), experiment::configKey(plain));
}

TEST(SystemConfig, ComponentSubtreesReachTheBuilders)
{
    // A subtree knob must change simulated behaviour: SLP drops a
    // prefetch when the perceptron sum reaches tau_pref ("predicted
    // off-chip"), so an always-reached threshold drops (nearly) all.
    Config base = Config::parse("scheme = tlp\n"
                                "warmup_instrs = 2000\n"
                                "sim_instrs = 8000\n");
    Config strict = base;
    strict.set("scheme.l1_filter.tau_pref", -120);

    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    SimResult loose
        = experiment::runSingleCore(ws.front(),
                                    SystemConfig::fromConfig(base));
    SimResult tight
        = experiment::runSingleCore(ws.front(),
                                    SystemConfig::fromConfig(strict));
    EXPECT_GT(tight.stat("cpu0.l1d.pf_filtered"),
              loose.stat("cpu0.l1d.pf_filtered"));
}

// --- error paths ------------------------------------------------------------

TEST(SystemConfig, ZeroCoresIsRejected)
{
    try {
        SystemConfig::fromConfig(Config::parse("cores = 0\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("cores = 0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SystemConfig, UnknownKeyListsNearbyKeys)
{
    try {
        SystemConfig::fromConfig(Config::parse("scheme.bogus = 1\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("scheme.bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("scheme.name"), std::string::npos) << msg;
    }
}

TEST(SystemConfig, UnknownTopLevelKeyListsValidKeys)
{
    try {
        SystemConfig::fromConfig(Config::parse("bogus_key = 1\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bogus_key"), std::string::npos) << msg;
        EXPECT_NE(msg.find("valid keys"), std::string::npos) << msg;
        EXPECT_NE(msg.find("warmup_instrs"), std::string::npos) << msg;
    }
}

TEST(SystemConfig, UnknownPrefetcherListsRegistryNames)
{
    try {
        SystemConfig::fromConfig(Config::parse("l1d.prefetcher = fancy\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("fancy"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ipcp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("berti"), std::string::npos) << msg;
        EXPECT_NE(msg.find("next_line"), std::string::npos) << msg;
    }
}

TEST(SystemConfig, UnknownOffchipPredictorListsRegistryNames)
{
    Config c = Config::parse("scheme.offchip = athena\n");
    try {
        SystemConfig::fromConfig(c);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("athena"), std::string::npos) << msg;
        EXPECT_NE(msg.find("flp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("hermes"), std::string::npos) << msg;
    }
}

namespace
{

/** A machine key and a read of the Params field it must set. */
using MachineField
    = std::pair<std::string, std::function<unsigned(const SystemConfig &)>>;

/** Append "<block>.<knob>" -> (cfg.*params).*member for each member. */
template <typename P>
void
addMachineFields(
    std::vector<MachineField> &out, const std::string &block,
    P SystemConfig::*params,
    std::initializer_list<std::pair<const char *, unsigned P::*>> members)
{
    for (const auto &[knob, member] : members) {
        out.emplace_back(block + "." + knob,
                         [params, m = member](const SystemConfig &c) {
                             return (c.*params).*m;
                         });
    }
}

} // namespace

// Every one of the machine's 54 keys reaches the Params field it names.
// The table is written independently of the knob declarations, so an
// entry bound to the wrong field fails here.
TEST(SystemConfig, EveryMachineKeyReachesItsField)
{
    using C = Core::Params;
    using K = Cache::Params;
    using T = Tlb::Params;
    using D = DramController::Params;
    std::vector<MachineField> fields;
    addMachineFields<C>(
        fields, "core", &SystemConfig::core,
        {{"rob_size", &C::rob_size}, {"fetch_width", &C::fetch_width},
         {"retire_width", &C::retire_width}, {"lq_size", &C::lq_size},
         {"sq_size", &C::sq_size}, {"load_ports", &C::load_ports},
         {"mispredict_penalty", &C::mispredict_penalty},
         {"spec_latency", &C::spec_latency}});
    for (const auto &[block, cache] :
         {std::pair{"l1i", &SystemConfig::l1i}, {"l1d", &SystemConfig::l1d},
          {"l2", &SystemConfig::l2}, {"llc", &SystemConfig::llc}}) {
        addMachineFields<K>(
            fields, block, cache,
            {{"sets", &K::sets}, {"ways", &K::ways},
             {"latency", &K::latency}, {"mshrs", &K::mshrs},
             {"rq_size", &K::rq_size}, {"wq_size", &K::wq_size},
             {"pq_size", &K::pq_size},
             {"lookups_per_cycle", &K::lookups_per_cycle}});
    }
    for (const auto &[block, tlb] : {std::pair{"dtlb", &SystemConfig::dtlb},
                                     {"stlb", &SystemConfig::stlb}}) {
        addMachineFields<T>(fields, block, tlb,
                            {{"entries", &T::entries}, {"ways", &T::ways},
                             {"latency", &T::latency}});
    }
    addMachineFields<D>(
        fields, "dram", &SystemConfig::dram,
        {{"banks", &D::banks}, {"blocks_per_row", &D::blocks_per_row},
         {"t_rp", &D::t_rp}, {"t_rcd", &D::t_rcd}, {"t_cas", &D::t_cas},
         {"rq_size", &D::rq_size}, {"wq_size", &D::wq_size},
         {"spec_buffer_entries", &D::spec_buffer_entries}});
    ASSERT_EQ(fields.size(), 54u);

    // Distinct values, none of them a Table III default.
    Config c;
    for (std::size_t i = 0; i < fields.size(); ++i)
        c.set(fields[i].first, 5000 + i);
    const SystemConfig cfg = SystemConfig::fromConfig(c);
    for (std::size_t i = 0; i < fields.size(); ++i)
        EXPECT_EQ(fields[i].second(cfg), 5000 + i) << fields[i].first;

    // The dump renders each back under the same key, and no other
    // machine key exists.
    const Config dump = cfg.toConfig();
    Config machine;
    for (const std::string &k : dump.keys()) {
        const std::string block = k.substr(0, k.find('.'));
        if (k.find('.') != std::string::npos && block != "scheme"
            && k.find(".prefetcher") == std::string::npos) {
            machine.set(k, dump.getString(k));
        }
    }
    EXPECT_EQ(machine, c);
}

// Machine keys share their blocks with component slots (l1d.prefetcher):
// a misspelled machine key must still fail, listing the block's keys,
// and a malformed value must name the key and the 32-bit range.
TEST(SystemConfig, MachineKeyTyposAndBadValuesFail)
{
    auto expectError = [](const std::string &line,
                          std::initializer_list<const char *> needles) {
        try {
            SystemConfig::fromConfig(Config::parse(line + "\n"));
            FAIL() << "expected ConfigError for " << line;
        } catch (const ConfigError &e) {
            std::string msg = e.what();
            for (const char *needle : needles)
                EXPECT_NE(msg.find(needle), std::string::npos) << msg;
        }
    };
    expectError("l1d.sett = 4",
                {"unknown config key 'l1d.sett'", "l1d.sets",
                 "l1d.prefetcher"});
    expectError("dram.t_rpp = 3",
                {"unknown config key 'dram.t_rpp'", "dram.t_rp"});
    expectError("core.rob_sise = 3",
                {"unknown config key 'core.rob_sise'", "core.rob_size"});
    expectError("l1d.sets = banana",
                {"'l1d.sets'", "banana", "32-bit non-negative"});
    expectError("dram.banks = -1",
                {"'dram.banks'", "-1", "32-bit non-negative"});
    expectError("core.rob_size = 4294967296",
                {"'core.rob_size'", "4294967296", "32-bit non-negative"});
}

// The named scheme.* knobs are gone: each component is tuned only
// through its own subtree, so the old spellings are plain unknown keys.
TEST(SystemConfig, RetiredNamedKnobsAreUnknownKeys)
{
    for (const std::string key :
         {"scheme.offchip_policy", "scheme.tau_high", "scheme.tau_low",
          "scheme.offchip_training_threshold", "scheme.offchip_table_scale",
          "scheme.slp_flp_feature", "scheme.slp_tau_pref",
          "l1d.prefetcher_table_scale"}) {
        Config c = Config::parse("scheme = tlp\n");
        c.set(key, 1);
        try {
            SystemConfig::fromConfig(c);
            FAIL() << "expected ConfigError for " << key;
        } catch (const ConfigError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find("unknown config key '" + key + "'"),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("valid"), std::string::npos) << msg;
        }
    }
}

TEST(SystemConfig, BadPolicyListsValidPolicies)
{
    // "none" is no policy: a deployed predictor that never fires is a
    // config error, not a silent no-op.
    for (const char *policy : {"sometimes", "none"}) {
        Config c = Config::parse(std::string("scheme.offchip = flp\n"
                                             "scheme.offchip.policy = ")
                                 + policy + "\n");
        try {
            SystemConfig::fromConfig(c);
            FAIL() << "expected ConfigError for " << policy;
        } catch (const ConfigError &e) {
            std::string msg = e.what();
            EXPECT_NE(msg.find(policy), std::string::npos) << msg;
            EXPECT_NE(msg.find("selective"), std::string::npos) << msg;
        }
    }
}

// --- CLI path == bench path -------------------------------------------------

// The acceptance criterion: a design point built from a shipped preset
// file (the tlpsim CLI path) is the *same* design point as one built in
// code the way the benches do it — byte-identical config fingerprint, so
// the Runner memoizes them as one simulation and every table row matches.
TEST(SystemConfig, PresetFileDesignPointMatchesBenchPath)
{
    Config file_cfg = Config::parseFile(std::string(TLPSIM_CONFIGS_DIR)
                                        + "/tlp.conf");
    file_cfg.merge(
        Config::parseAssignments("warmup_instrs=2000, sim_instrs=6000"));
    SystemConfig cli_path = SystemConfig::fromConfig(file_cfg);

    SystemConfig bench_path = SystemConfig::cascadeLake(1);
    bench_path.warmup_instrs = 2'000;
    bench_path.sim_instrs = 6'000;
    bench_path.scheme = SchemeConfig::fromName("tlp");

    EXPECT_EQ(experiment::configKey(cli_path),
              experiment::configKey(bench_path));

    // And the design point actually runs end to end.
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    SimResult r = experiment::runSingleCore(ws.front(), cli_path);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_EQ(r.scheme, "tlp");
}
