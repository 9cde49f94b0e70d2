/**
 * @file
 * Trace-driven component costs: each predictor, filter and prefetcher is
 * built through its registry with the configuration the simulator gives
 * it (FLP/SLP from the tlp preset, PPF and aggressive SPP from
 * hermes+ppf, IPCP and the TLBs from the Table III system) and driven
 * through its public calls by the loads and branches of the workload's
 * own recorded traces, not by uniform random inputs. Inputs are prepared
 * before each timed loop, so a loop times only the component's calls.
 *
 * Outcome labels the components train on (was a load served off-chip?)
 * come from a direct-mapped proxy of the cache hierarchy: it keeps the
 * training mix plausible without running the simulator.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hh"
#include "common/stats.hh"
#include "core/branch_pred.hh"
#include "prefetch/factory.hh"
#include "spans.hh"
#include "tlb/page_table.hh"
#include "tlb/tlb.hh"

namespace perfbench
{

using namespace tlpsim;

namespace
{

/** Upper bound on timed calls per component (keeps the traced round's
 *  extra work to well under a second per component). */
constexpr std::size_t kMaxCalls = 200'000;

struct Load
{
    Addr ip;
    Addr vaddr;
    Addr paddr;
    bool offchip;   ///< proxy outcome: missed the proxy hierarchy
};

struct Branch
{
    Addr ip;
    bool taken;
};

/** One prefetch candidate and the load that triggered it. */
struct Candidate
{
    std::size_t load;
    Addr vaddr;
    Addr paddr;
    std::uint8_t fill_level;
    std::uint32_t metadata;
};

/** Direct-mapped block-presence proxy: 2^16 lines of 64 B (4 MiB). */
class ProxyHierarchy
{
  public:
    /** True if @p paddr missed (and is now present). */
    bool
    access(Addr paddr)
    {
        const Addr block = paddr >> 6;
        Addr &slot = tags_[block & (tags_.size() - 1)];
        const bool miss = slot != block + 1;
        slot = block + 1;
        return miss;
    }

  private:
    std::vector<Addr> tags_ = std::vector<Addr>(std::size_t{1} << 16, 0);
};

PrefetchTrigger
triggerFor(const Load &l, bool offchip_pred)
{
    PrefetchTrigger t;
    t.vaddr = l.vaddr;
    t.paddr = l.paddr;
    t.ip = l.ip;
    t.type = AccessType::Load;
    t.cache_hit = !l.offchip;
    t.offchip_pred = offchip_pred;
    return t;
}

template <typename Fn>
double
nsPerCall(std::size_t calls, Fn &&loop)
{
    const Clock::time_point t0 = Clock::now();
    loop();
    const double s = secondsSince(t0);
    return calls == 0 ? 0.0 : s * 1e9 / static_cast<double>(calls);
}

/** Candidates a prefetcher emits over @p loads (untimed pass). */
std::vector<Candidate>
collectCandidates(Prefetcher &pf, const std::vector<Load> &loads,
                  PageTable &pt, bool physical)
{
    std::vector<Candidate> out;
    std::vector<PrefetchCandidate> buf;
    for (std::size_t i = 0; i < loads.size() && out.size() < kMaxCalls;
         ++i) {
        buf.clear();
        pf.onAccess(triggerFor(loads[i], false), buf);
        for (const PrefetchCandidate &c : buf) {
            const Addr paddr = physical ? c.addr : pt.translate(0, c.addr);
            out.push_back({i, physical ? 0 : c.addr, paddr, c.fill_level,
                           c.metadata});
        }
    }
    if (out.size() > kMaxCalls)
        out.resize(kMaxCalls);
    return out;
}

Config
named(Config cfg, const char *name)
{
    if (!cfg.has("name"))
        cfg.set("name", name);
    return cfg;
}

} // namespace

Metrics
componentCosts(const std::vector<const Trace *> &traces)
{
    // ---- inputs: an even share of each trace's loads and branches ----
    std::vector<Load> loads;
    std::vector<Branch> branches;
    PageTable pt;
    ProxyHierarchy proxy;
    const std::size_t share
        = traces.empty() ? 0 : kMaxCalls / traces.size() + 1;
    for (const Trace *t : traces) {
        std::size_t nl = 0;
        std::size_t nb = 0;
        for (std::size_t i = 0; i < t->size() && (nl < share || nb < share);
             ++i) {
            const TraceInstr &in = t->at(i);
            if (in.isLoad() && nl < share) {
                const Addr paddr = pt.translate(0, in.ld_vaddr);
                loads.push_back({in.ip, in.ld_vaddr, paddr,
                                 proxy.access(paddr)});
                ++nl;
            }
            if (in.branch == BranchKind::Conditional && nb < share) {
                branches.push_back({in.ip, in.taken});
                ++nb;
            }
        }
    }
    loads.resize(std::min(loads.size(), kMaxCalls));
    branches.resize(std::min(branches.size(), kMaxCalls));

    SystemConfig tlp = SystemConfig::cascadeLake(1);
    tlp.scheme = SchemeConfig::fromName("tlp");
    SystemConfig hppf = SystemConfig::cascadeLake(1);
    hppf.scheme = SchemeConfig::fromName("hermes+ppf");
    // The components live in the library, so the optimizer cannot drop
    // the calls below even though most results are discarded.
    StatGroup stats("components");

    // ---- TLB stack ----
    Tlb dtlb(tlp.dtlb, &stats);
    Tlb stlb(tlp.stlb, &stats);
    TranslationStack tlbs(&dtlb, &stlb);
    const double tlb_ns = nsPerCall(loads.size(), [&] {
        for (const Load &l : loads) {
            if (tlbs.lookup(l.vaddr).needs_walk)
                tlbs.fill(l.vaddr);
        }
    });

    // ---- FLP: predictLoad + train ----
    auto flp = offchipRegistry().build(
        tlp.scheme.offchip, named(tlp.scheme.offchipBuildConfig(), "flp"),
        &stats);
    std::vector<char> flp_bit(loads.size(), 0);
    const double flp_ns = nsPerCall(loads.size(), [&] {
        for (std::size_t i = 0; i < loads.size(); ++i) {
            OffChipPredictor::Decision d
                = flp->predictLoad(loads[i].ip, loads[i].vaddr);
            flp->train(d.meta, loads[i].offchip);
            flp_bit[i] = d.predicted_offchip;
        }
    });

    // ---- IPCP (L1D prefetcher, virtual addresses) ----
    auto ipcp = prefetcherRegistry().build(tlp.l1_prefetcher,
                                           tlp.l1PrefetcherBuildConfig());
    std::vector<PrefetchCandidate> buf;
    const double ipcp_ns = nsPerCall(loads.size(), [&] {
        for (const Load &l : loads) {
            buf.clear();
            ipcp->onAccess(triggerFor(l, false), buf);
        }
    });
    auto ipcp_fresh = prefetcherRegistry().build(
        tlp.l1_prefetcher, tlp.l1PrefetcherBuildConfig());
    const std::vector<Candidate> l1_cands
        = collectCandidates(*ipcp_fresh, loads, pt, false);

    // ---- SLP: allow, and train on the completion of what it lets by ----
    auto slp = filterRegistry().build(
        tlp.scheme.l1_filter, named(tlp.scheme.l1FilterBuildConfig(), "slp"),
        &stats);
    const double slp_ns = nsPerCall(l1_cands.size(), [&] {
        for (const Candidate &c : l1_cands) {
            const Load &l = loads[c.load];
            std::uint8_t fill = c.fill_level;
            PredictionMeta meta;
            if (slp->allow(triggerFor(l, flp_bit[c.load] != 0), c.vaddr,
                           c.paddr, c.metadata, fill, meta)) {
                Packet pkt;
                pkt.vaddr = c.vaddr;
                pkt.paddr = c.paddr;
                pkt.ip = l.ip;
                pkt.type = AccessType::Prefetch;
                pkt.pred_meta = meta;
                pkt.served_by = l.offchip ? MemLevel::Dram : MemLevel::L2C;
                slp->onPrefetchFill(pkt);
            }
        }
    });

    // ---- SPP (L2 prefetcher, physical addresses, PPF companion tuning) ----
    auto spp = prefetcherRegistry().build(hppf.l2_prefetcher,
                                          hppf.l2PrefetcherBuildConfig());
    const double spp_ns = nsPerCall(loads.size(), [&] {
        for (const Load &l : loads) {
            buf.clear();
            spp->onAccess(triggerFor(l, false), buf);
        }
    });
    auto spp_fresh = prefetcherRegistry().build(
        hppf.l2_prefetcher, hppf.l2PrefetcherBuildConfig());
    const std::vector<Candidate> l2_cands
        = collectCandidates(*spp_fresh, loads, pt, true);

    // ---- PPF: allow, trained by demand outcomes on what it decided ----
    auto ppf = filterRegistry().build(
        hppf.scheme.l2_filter, named(hppf.scheme.l2FilterBuildConfig(), "ppf"),
        &stats);
    const double ppf_ns = nsPerCall(l2_cands.size(), [&] {
        for (const Candidate &c : l2_cands) {
            const Load &l = loads[c.load];
            std::uint8_t fill = c.fill_level;
            PredictionMeta meta;
            ppf->allow(triggerFor(l, false), c.vaddr, c.paddr, c.metadata,
                       fill, meta);
            if (l.offchip)
                ppf->onDemandMiss(l.paddr, l.ip);
            else
                ppf->onDemandHitPrefetched(l.paddr, l.ip);
        }
    });

    // ---- branch predictor ----
    BranchPredictor bp(&stats);
    const double bp_ns = nsPerCall(branches.size(), [&] {
        for (const Branch &b : branches)
            bp.predictAndTrain(b.ip, b.taken);
    });

    return {
        {"offchip.flp_ns", flp_ns},
        {"offchip.slp_ns", slp_ns},
        {"filter.ppf_ns", ppf_ns},
        {"prefetch.ipcp_ns", ipcp_ns},
        {"prefetch.spp_ns", spp_ns},
        {"tlb.translate_ns", tlb_ns},
        {"core.bp_ns", bp_ns},
    };
}

} // namespace perfbench
