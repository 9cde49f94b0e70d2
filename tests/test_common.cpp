/** Unit tests for src/common: bit ops, RNG, counters, stats, storage,
 *  the watchdog, the build-once cache. */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>

#include "common/bitops.hh"
#include "common/once_cache.hh"
#include "common/rng.hh"
#include "common/sat_counter.hh"
#include "common/stats.hh"
#include "common/storage.hh"
#include "common/types.hh"
#include "common/watchdog.hh"

using namespace tlpsim;

TEST(Types, BlockGeometry)
{
    EXPECT_EQ(kBlockSize, 64u);
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockNumber(0x12345), 0x48du);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
}

TEST(Types, LineOffsetInPage)
{
    EXPECT_EQ(lineOffsetInPage(0x1000), 0u);
    EXPECT_EQ(lineOffsetInPage(0x1040), 1u);
    EXPECT_EQ(lineOffsetInPage(0x1fc0), 63u);
    EXPECT_EQ(lineOffsetInPage(0x2000), 0u);
}

TEST(Types, ByteOffsetInBlock)
{
    EXPECT_EQ(byteOffsetInBlock(0x1000), 0u);
    EXPECT_EQ(byteOffsetInBlock(0x103f), 63u);
    EXPECT_EQ(byteOffsetInBlock(0x1040), 0u);
}

TEST(Types, ToStringCoversAllEnumerators)
{
    EXPECT_STREQ(toString(AccessType::Load), "load");
    EXPECT_STREQ(toString(AccessType::Rfo), "rfo");
    EXPECT_STREQ(toString(AccessType::Prefetch), "prefetch");
    EXPECT_STREQ(toString(AccessType::Writeback), "writeback");
    EXPECT_STREQ(toString(AccessType::Translation), "translation");
    EXPECT_STREQ(toString(MemLevel::Dram), "DRAM");
}

TEST(Bitops, Bits)
{
    EXPECT_EQ(bits(0xffffULL, 0, 4), 0xfu);
    EXPECT_EQ(bits(0xabcdULL, 4, 8), 0xbcu);
    EXPECT_EQ(bits(0xffULL, 0, 64), 0xffULL);
}

TEST(Bitops, FoldedXorReducesRange)
{
    for (std::uint64_t v : {0ULL, 1ULL, 0xdeadbeefULL, ~0ULL}) {
        EXPECT_LT(foldedXor(v, 10), 1024u);
        EXPECT_LT(foldedXor(v, 7), 128u);
    }
}

TEST(Bitops, FoldedXorPreservesLowEntropy)
{
    // Distinct small values must stay distinct after folding.
    std::set<std::uint64_t> outs;
    for (std::uint64_t v = 0; v < 128; ++v)
        outs.insert(foldedXor(v, 10));
    EXPECT_EQ(outs.size(), 128u);
}

TEST(Bitops, Mix64Distributes)
{
    std::set<std::uint64_t> outs;
    for (std::uint64_t v = 0; v < 1000; ++v)
        outs.insert(mix64(v));
    EXPECT_EQ(outs.size(), 1000u);
}

TEST(Bitops, PowerOfTwoAndLog)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(1024), 10u);
}

TEST(Rng, Deterministic)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(3);
    double sum = 0.0;
    for (int i = 0; i < 10'000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10'000.0, 0.5, 0.02);
}

TEST(Rng, DiscardEqualsStepping)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 0x9e3779b97f4a7c15ULL}) {
        for (std::uint64_t n :
             {0ULL, 1ULL, 63ULL, 64ULL, 65ULL, 1'000'003ULL}) {
            Rng skipped(seed);
            Rng stepped(seed);
            skipped.discard(n);
            for (std::uint64_t i = 0; i < n; ++i)
                stepped.next();
            EXPECT_TRUE(skipped == stepped) << "seed " << seed << ", n " << n;
            EXPECT_EQ(skipped.next(), stepped.next());
        }
    }
}

TEST(Rng, CharPolyGivesThePublishedJump)
{
    // The xoshiro256 authors' jump() advances 2^128 draws as discard()
    // does, by x^(2^128) mod P; their published JUMP constants are its
    // coefficients.
    Rng::Poly p{2, 0, 0, 0};   // x
    for (int i = 0; i < 128; ++i)
        p = Rng::mulMod(p, p);
    const Rng::Poly kJump = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                             0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    EXPECT_EQ(p, kJump);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter<5> c;
    for (int i = 0; i < 100; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 15);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter<5> c;
    for (int i = 0; i < 100; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), -16);
}

TEST(SatCounter, TrainDirection)
{
    SatCounter<5> c;
    c.train(true);
    EXPECT_EQ(c.value(), 1);
    c.train(false);
    c.train(false);
    EXPECT_EQ(c.value(), -1);
}

TEST(SatCounter, ClampOnConstruct)
{
    EXPECT_EQ(SatCounter<5>(100).value(), 15);
    EXPECT_EQ(SatCounter<5>(-100).value(), -16);
    EXPECT_EQ(SatCounter<5>(3).value(), 3);
}

TEST(SatCounter, WidthParameterized)
{
    EXPECT_EQ(SatCounter<3>::kMax, 3);
    EXPECT_EQ(SatCounter<3>::kMin, -4);
    EXPECT_EQ(SatCounter<8>::kMax, 127);
    EXPECT_EQ(SatCounter<8>::kMin, -128);
}

TEST(Stats, CounterRegistration)
{
    StatGroup g("test");
    Counter *c = g.counter("a.b");
    c->add(3);
    c->add();
    EXPECT_EQ(g.get("a.b"), 4u);
    EXPECT_TRUE(g.has("a.b"));
    EXPECT_FALSE(g.has("a.c"));
    EXPECT_EQ(g.get("a.c"), 0u);
}

TEST(Stats, SameNameSameCounter)
{
    StatGroup g("test");
    Counter *c1 = g.counter("x");
    Counter *c2 = g.counter("x");
    EXPECT_EQ(c1, c2);
}

TEST(Stats, ResetAll)
{
    StatGroup g("test");
    g.counter("x")->add(5);
    g.counter("y")->add(7);
    g.resetAll();
    EXPECT_EQ(g.get("x"), 0u);
    EXPECT_EQ(g.get("y"), 0u);
}

TEST(Stats, DumpSorted)
{
    StatGroup g("test");
    g.counter("b")->add(2);
    g.counter("a")->add(1);
    auto dump = g.dump();
    ASSERT_EQ(dump.size(), 2u);
    EXPECT_EQ(dump[0].first, "a");
    EXPECT_EQ(dump[1].first, "b");
}

TEST(Storage, TotalsAndKilobytes)
{
    StorageBudget b;
    b.add("x", 8192);          // 1 KB
    b.add("y", 4096);          // 0.5 KB
    EXPECT_EQ(b.totalBits(), 12288u);
    EXPECT_DOUBLE_EQ(b.totalKilobytes(), 1.5);
}

TEST(Storage, MergePrefixes)
{
    StorageBudget a;
    a.add("t", 8);
    StorageBudget b;
    b.merge(a, "pre.");
    ASSERT_EQ(b.items().size(), 1u);
    EXPECT_EQ(b.items()[0].name, "pre.t");
}

TEST(Storage, TableRendering)
{
    StorageBudget b;
    b.add("weights", 8192);
    std::string t = b.toTable("Budget");
    EXPECT_NE(t.find("Budget"), std::string::npos);
    EXPECT_NE(t.find("weights"), std::string::npos);
    EXPECT_NE(t.find("TOTAL"), std::string::npos);
}

TEST(Watchdog, BudgetBeyondClockRangeNeverExpires)
{
    // 1e300 s is far past the clock's int64 nanoseconds: such a budget
    // must arm as never expiring, not overflow into a past deadline.
    watchdog::arm(1e300);
    EXPECT_TRUE(watchdog::armed());
    EXPECT_NO_THROW(watchdog::poll());
    watchdog::arm(std::numeric_limits<double>::infinity());
    EXPECT_NO_THROW(watchdog::poll());
    // NaN compares false against every bound; it disarms like 0.
    watchdog::arm(std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(watchdog::armed());
    watchdog::disarm();
}

TEST(OnceCache, FailedBuildRethrowsAndTheNextGetBuildsAgain)
{
    OnceCache<int, int> cache;
    int builds = 0;
    EXPECT_THROW(cache.get(7, [&]() -> int {
                     ++builds;
                     throw std::runtime_error("build failed");
                 }),
                 std::runtime_error);
    // The failed key was dropped, so this get() builds it again.
    const auto value = cache.get(7, [&] {
        ++builds;
        return 42;
    });
    EXPECT_EQ(*value, 42);
    EXPECT_EQ(builds, 2);
    // Now it is cached: the same value, no third build.
    EXPECT_EQ(cache.get(7, [&] {
                  ++builds;
                  return 0;
              }),
              value);
    EXPECT_EQ(builds, 2);
}
