/**
 * @file
 * Set-associative TLBs (L1 DTLB and the shared L2 STLB of Table III).
 *
 * TLBs are consulted synchronously by the core at load/store issue: a DTLB
 * hit costs its access latency, a DTLB miss falling into the STLB adds the
 * STLB latency, and a full miss triggers a page walk, which the core models
 * as a Translation-type read into the cache hierarchy.
 */

#ifndef TLPSIM_TLB_TLB_HH
#define TLPSIM_TLB_TLB_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tlpsim
{

/** One level of TLB with true-LRU replacement. */
class Tlb
{
  public:
    struct Params
    {
        std::string name = "tlb";
        unsigned entries = 64;
        unsigned ways = 4;
        unsigned latency = 1;
    };

    Tlb(const Params &p, StatGroup *stats);

    /** Look up @p vaddr; fills hit latency and updates LRU. */
    bool lookup(Addr vaddr);

    /** Presence check with no state change: no LRU update, no count. */
    bool probe(Addr vaddr) const;

    /** Install a translation for @p vaddr (evicts LRU way). */
    void install(Addr vaddr);

    unsigned latency() const { return params_.latency; }
    const Params &params() const { return params_; }

  private:
    struct Entry
    {
        Addr vpn = 0;
        bool valid = false;
        std::uint64_t lru = 0;
    };

    const Entry *find(Addr vpn) const;
    Entry *
    find(Addr vpn)
    {
        return const_cast<Entry *>(std::as_const(*this).find(vpn));
    }

    Params params_;
    unsigned sets_;
    std::vector<Entry> entries_;
    std::uint64_t lru_clock_ = 0;
    Counter *hits_;
    Counter *misses_;
};

/**
 * The core-side translation stack: DTLB backed by STLB.
 *
 * Result of a lookup: either a synchronous latency (both TLB levels) or a
 * page-walk requirement the core turns into a Translation read.
 */
class TranslationStack
{
  public:
    struct Result
    {
        bool needs_walk = false;
        unsigned latency = 0;   ///< valid when !needs_walk
    };

    TranslationStack(Tlb *dtlb, Tlb *stlb) : dtlb_(dtlb), stlb_(stlb) {}

    Result lookup(Addr vaddr);

    /** Would lookup() translate @p vaddr without a walk? No state change,
     *  so a caller can settle a load's fate before translating it. */
    bool
    probe(Addr vaddr) const
    {
        return dtlb_->probe(vaddr) || stlb_->probe(vaddr);
    }

    /** Install in both levels after a completed walk. */
    void fill(Addr vaddr);

    /** Latency already paid before a walk starts (DTLB + STLB misses). */
    unsigned
    missLatency() const
    {
        return dtlb_->latency() + stlb_->latency();
    }

  private:
    Tlb *dtlb_;
    Tlb *stlb_;
};

} // namespace tlpsim

#endif // TLPSIM_TLB_TLB_HH
