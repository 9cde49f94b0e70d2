/** Tests for the prefetchers: next-line, IPCP, Berti, SPP, and factory. */

#include <gtest/gtest.h>

#include "common/rng.hh"

#include "prefetch/berti.hh"
#include "prefetch/factory.hh"
#include "prefetch/ipcp.hh"
#include "prefetch/next_line.hh"
#include "prefetch/spp.hh"

using namespace tlpsim;

namespace
{

PrefetchTrigger
loadAt(Addr vaddr, Addr ip, Cycle now = 0, Addr paddr = 0)
{
    PrefetchTrigger t;
    t.vaddr = vaddr;
    t.paddr = paddr == 0 ? vaddr : paddr;
    t.ip = ip;
    t.type = AccessType::Load;
    t.cache_hit = false;
    t.now = now;
    return t;
}

std::vector<PrefetchCandidate>
access(Prefetcher &pf, const PrefetchTrigger &t)
{
    std::vector<PrefetchCandidate> out;
    pf.onAccess(t, out);
    return out;
}

} // namespace

TEST(NextLine, PrefetchesNextBlocks)
{
    NextLinePrefetcher pf(2);
    auto out = access(pf, loadAt(0x1000, 0x400100));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].addr, 0x1040u);
    EXPECT_EQ(out[1].addr, 0x1080u);
}

TEST(NextLine, IgnoresNonDemand)
{
    NextLinePrefetcher pf;
    PrefetchTrigger t = loadAt(0x1000, 0x400100);
    t.type = AccessType::Writeback;
    std::vector<PrefetchCandidate> out;
    pf.onAccess(t, out);
    EXPECT_TRUE(out.empty());
}

TEST(Ipcp, DetectsConstantStride)
{
    IpcpPrefetcher pf;
    Addr ip = 0x400100;
    Addr base = 0x10000;
    std::vector<PrefetchCandidate> out;
    // Stride of 2 lines; after confidence builds, CS class fires.
    for (int i = 0; i < 8; ++i)
        out = access(pf, loadAt(base + static_cast<Addr>(i) * 128, ip));
    ASSERT_GE(out.size(), 2u);
    EXPECT_EQ(out[0].addr, base + 8 * 128);
    EXPECT_EQ(out[1].addr, base + 9 * 128);
}

TEST(Ipcp, ColdIpFallsBackToNextLine)
{
    IpcpPrefetcher pf;
    auto out = access(pf, loadAt(0x10000, 0x400100));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr, 0x10040u);
}

TEST(Ipcp, StopsAtPageBoundary)
{
    IpcpPrefetcher pf;
    Addr ip = 0x400200;
    std::vector<PrefetchCandidate> out;
    // Stride toward the end of the page; every candidate must stay in
    // the page of the access that triggered it.
    Addr last = 0;
    for (int i = 0; i < 10; ++i) {
        last = 0x10000 + 0xf00 + static_cast<Addr>(i) * 0x40;
        out = access(pf, loadAt(last, ip));
        for (const auto &c : out)
            EXPECT_EQ(pageNumber(c.addr), pageNumber(last));
    }
}

TEST(Ipcp, AllCandidatesFillL1)
{
    IpcpPrefetcher pf;
    Addr ip = 0x400300;
    for (int i = 0; i < 10; ++i) {
        for (const auto &c :
             access(pf, loadAt(0x20000 + static_cast<Addr>(i) * 64, ip))) {
            EXPECT_EQ(c.fill_level, 1);
        }
    }
}

TEST(Ipcp, GlobalStreamOnDenseRegion)
{
    IpcpPrefetcher::Params p;
    p.gs_dense_threshold = 8;
    IpcpPrefetcher pf(p);
    // Touch a dense region from many different IPs (defeats per-IP CS).
    std::vector<PrefetchCandidate> out;
    for (int i = 0; i < 16; ++i) {
        out = access(pf, loadAt(0x30000 + static_cast<Addr>(i) * 64,
                                0x400000 + static_cast<Addr>(i) * 4));
    }
    // Dense region with cold IPs: at least next-line momentum expected.
    EXPECT_FALSE(out.empty());
}

TEST(Ipcp, StorageScalesWithShift)
{
    IpcpPrefetcher::Params p;
    IpcpPrefetcher base(p);
    p.table_scale_shift = 2;
    IpcpPrefetcher big(p);
    EXPECT_GT(big.storage().totalBits(), base.storage().totalBits() * 3);
}

TEST(Berti, LearnsTimelyDelta)
{
    BertiPrefetcher::Params p;
    p.issue_confidence = 2;
    BertiPrefetcher pf(p);
    Addr ip = 0x400400;
    // Accesses with stride 1 line and enough time between them to make
    // the delta timely (window default 60 cycles).
    std::vector<PrefetchCandidate> out;
    for (int i = 0; i < 20; ++i)
        out = access(pf, loadAt(0x40000 + static_cast<Addr>(i) * 64, ip,
                                Cycle{100} * static_cast<Cycle>(i)));
    ASSERT_FALSE(out.empty());
    // All candidates are forward deltas within the page.
    for (const auto &c : out)
        EXPECT_GT(c.addr, 0x40000u);
}

TEST(Berti, NoPrefetchWhenDeltasNotTimely)
{
    BertiPrefetcher::Params p;
    p.initial_window = 1000;   // nothing is ever timely at 1-cycle gaps
    BertiPrefetcher pf(p);
    Addr ip = 0x400500;
    std::vector<PrefetchCandidate> out;
    for (int i = 0; i < 20; ++i)
        out = access(pf, loadAt(0x50000 + static_cast<Addr>(i) * 64, ip,
                                static_cast<Cycle>(i)));
    EXPECT_TRUE(out.empty());
}

TEST(Berti, WindowAdaptsToObservedLatency)
{
    BertiPrefetcher pf;
    Cycle before = pf.timelinessWindow();
    for (int i = 0; i < 50; ++i)
        pf.onFill(0x1000, 0x400100, MemLevel::Dram, 300);
    EXPECT_GT(pf.timelinessWindow(), before);
    // Non-DRAM fills must not move the window.
    Cycle w = pf.timelinessWindow();
    pf.onFill(0x1000, 0x400100, MemLevel::L2C, 10);
    EXPECT_EQ(pf.timelinessWindow(), w);
}

TEST(Berti, IssuesFewerThanIpcpOnIrregular)
{
    // The paper's contrast: Berti is conservative, IPCP aggressive.
    IpcpPrefetcher ipcp;
    BertiPrefetcher berti;
    Rng rng(3);
    std::size_t ipcp_total = 0;
    std::size_t berti_total = 0;
    for (int i = 0; i < 2000; ++i) {
        Addr a = 0x100000 + (rng.below(1 << 16)) * 64;
        ipcp_total += access(ipcp, loadAt(a, 0x400600,
                                          static_cast<Cycle>(i) * 10))
                          .size();
        berti_total += access(berti, loadAt(a, 0x400600,
                                            static_cast<Cycle>(i) * 10))
                           .size();
    }
    EXPECT_GT(ipcp_total, berti_total * 2);
}

TEST(Spp, LearnsDeltaPatternWithinPage)
{
    SppPrefetcher pf;
    Addr page = 0x7000000;
    std::vector<PrefetchCandidate> out;
    // Repeated +1 line pattern across several pages trains the PT.
    for (int p = 0; p < 8; ++p) {
        for (int i = 0; i < 32; ++i) {
            out = access(pf, loadAt(0, 0x400700, 0,
                                    page + static_cast<Addr>(p) * kPageSize
                                        + static_cast<Addr>(i) * 64));
        }
    }
    ASSERT_FALSE(out.empty());
    // Lookahead must follow the +1 path.
    EXPECT_EQ(out[0].addr % kBlockSize, 0u);
}

TEST(Spp, StaysWithinPage)
{
    SppPrefetcher pf;
    Addr page = 0x8000000;
    std::vector<PrefetchCandidate> all;
    for (int p = 0; p < 4; ++p) {
        for (int i = 0; i < 64; ++i) {
            std::vector<PrefetchCandidate> out;
            pf.onAccess(loadAt(0, 0x400800, 0,
                               page + static_cast<Addr>(p) * kPageSize + static_cast<Addr>(i) * 64),
                        out);
            for (auto &c : out) {
                EXPECT_EQ(pageNumber(c.addr),
                          pageNumber(page + static_cast<Addr>(p) * kPageSize));
                all.push_back(c);
            }
        }
    }
    EXPECT_FALSE(all.empty());
}

TEST(Spp, ConfidenceDecaysWithDepth)
{
    SppPrefetcher pf;
    Addr page = 0x9000000;
    std::vector<PrefetchCandidate> out;
    for (int p = 0; p < 8; ++p) {
        for (int i = 0; i < 48; ++i) {
            out.clear();
            pf.onAccess(loadAt(0, 0x400900, 0,
                               page + static_cast<Addr>(p) * kPageSize + static_cast<Addr>(i) * 64),
                        out);
        }
    }
    ASSERT_GE(out.size(), 2u);
    EXPECT_GE(SppPrefetcher::metaConfidence(out[0].metadata),
              SppPrefetcher::metaConfidence(out.back().metadata));
}

TEST(Spp, AggressiveModePrefetchesDeeper)
{
    SppPrefetcher normal;
    SppPrefetcher::Params ap;
    ap.aggressive = true;
    SppPrefetcher aggressive(ap);

    auto run = [](SppPrefetcher &pf) {
        std::size_t total = 0;
        for (int p = 0; p < 8; ++p) {
            for (int i = 0; i < 48; ++i) {
                std::vector<PrefetchCandidate> out;
                pf.onAccess(loadAt(0, 0x400a00, 0,
                                   0xa000000 + static_cast<Addr>(p) * kPageSize
                                       + static_cast<Addr>(i) * 64),
                            out);
                total += out.size();
            }
        }
        return total;
    };
    EXPECT_GT(run(aggressive), run(normal));
}

TEST(Spp, MetadataRoundTrips)
{
    auto m = SppPrefetcher::packMeta(77, 0xabc, 5);
    EXPECT_EQ(SppPrefetcher::metaConfidence(m), 77u);
    EXPECT_EQ(SppPrefetcher::metaSignature(m), 0xabcu);
    EXPECT_EQ(SppPrefetcher::metaDepth(m), 5u);
}

TEST(Spp, LearnsFromPrefetchTypeAccesses)
{
    // The L2 prefetcher must also learn from L1D prefetches passing by
    // (this is what lets SPP run ahead of streams).
    SppPrefetcher pf;
    Addr page = 0xb000000;
    std::vector<PrefetchCandidate> out;
    for (int p = 0; p < 8; ++p) {
        for (int i = 0; i < 32; ++i) {
            PrefetchTrigger t = loadAt(0, 0x400b00, 0,
                                       page + static_cast<Addr>(p) * kPageSize
                                           + static_cast<Addr>(i) * 64);
            t.type = AccessType::Prefetch;
            out.clear();
            pf.onAccess(t, out);
        }
    }
    EXPECT_FALSE(out.empty());
}
