#include "prefetch/spp.hh"

#include <cassert>

#include "common/bitops.hh"
#include "prefetch/factory.hh"

namespace tlpsim
{

SppPrefetcher::SppPrefetcher() : SppPrefetcher(Params{}) {}

SppPrefetcher::SppPrefetcher(const Params &p)
    : params_(p), sig_table_(p.signature_table_entries),
      pattern_table_(p.pattern_table_entries)
{
    assert(p.deltas_per_pattern <= kMaxDeltasPerPattern);
    if (params_.aggressive) {
        params_.lookahead_cutoff = 10;
        params_.max_lookahead = 12;
        params_.fill_threshold = 40;
    }
}

// tlpsim:hot

void
SppPrefetcher::onAccess(const PrefetchTrigger &trigger,
                        std::vector<PrefetchCandidate> &out)
{
    // SPP learns from demand accesses and from L1D prefetches passing
    // through the L2 (ChampSim invokes the L2 prefetcher for both), which
    // is what lets the signature path run ahead of streaming access.
    if (trigger.type != AccessType::Load && trigger.type != AccessType::Rfo
        && trigger.type != AccessType::Prefetch) {
        return;
    }

    const Addr page = pageNumber(trigger.paddr);
    const auto offset
        = static_cast<std::uint8_t>(lineOffsetInPage(trigger.paddr));

    // --- Signature table lookup ----------------------------------------
    std::size_t set = page & (sig_table_.size() - 1);
    SigEntry &e = sig_table_[set];
    bool tracked = e.valid && e.page_tag == page;
    if (!tracked) {
        e = SigEntry{page, true, offset, 0, ++lru_clock_};
        return;   // first touch of the page: learn, don't prefetch
    }

    int delta = static_cast<int>(offset) - static_cast<int>(e.last_offset);
    if (delta == 0)
        return;

    // --- Train the pattern table with the observed delta ----------------
    PatternEntry &pt = pattern_table_[e.signature
                                      & (pattern_table_.size() - 1)];
    const unsigned nd = params_.deltas_per_pattern;
    PatternDelta *slot = nullptr;
    PatternDelta *weakest = &pt.deltas[0];
    for (unsigned i = 0; i < nd; ++i) {
        PatternDelta &d = pt.deltas[i];
        if (d.count > 0 && d.delta == delta) {
            slot = &d;
            break;
        }
        if (d.count < weakest->count)
            weakest = &d;
    }
    if (slot == nullptr) {
        slot = weakest;
        slot->delta = delta;
        slot->count = 0;
    }
    if (slot->count == 15) {
        // Saturate: age everything to keep ratios meaningful.
        for (unsigned i = 0; i < nd; ++i)
            pt.deltas[i].count
                = static_cast<std::uint8_t>(pt.deltas[i].count >> 1);
        pt.total = static_cast<std::uint8_t>(pt.total >> 1);
    }
    ++slot->count;
    if (pt.total < 255)
        ++pt.total;

    e.signature = nextSignature(e.signature, delta);
    e.last_offset = offset;
    e.lru = ++lru_clock_;

    // --- Lookahead along the signature path -----------------------------
    std::uint16_t sig = e.signature;
    int lk_offset = offset;
    unsigned path_conf = 100;
    for (unsigned depth = 0; depth < params_.max_lookahead; ++depth) {
        const PatternEntry &p = pattern_table_[sig
                                               & (pattern_table_.size() - 1)];
        if (p.total == 0)
            break;
        const PatternDelta *best = nullptr;
        for (unsigned i = 0; i < nd; ++i) {
            const PatternDelta &d = p.deltas[i];
            if (d.count > 0 && (best == nullptr || d.count > best->count))
                best = &d;
        }
        if (best == nullptr)
            break;
        path_conf = path_conf * best->count
            / std::max<unsigned>(p.total, 1);
        if (path_conf < params_.lookahead_cutoff)
            break;
        lk_offset += best->delta;
        if (lk_offset < 0
            || lk_offset >= static_cast<int>(kLinesPerPage)) {
            break;   // SPP stops at page boundaries
        }
        Addr pf_addr = (page << kPageBits)
            + (static_cast<Addr>(lk_offset) << kBlockBits);
        std::uint8_t fill_level
            = path_conf >= params_.fill_threshold ? 2 : 3;
        out.push_back(   // tlpsim:waive(hotpath) caller-reserved
            {pf_addr, fill_level,
             packMeta(path_conf, sig, depth)});
        sig = nextSignature(sig, best->delta);
    }
}

// tlpsim:endhot

StorageBudget
SppPrefetcher::storage() const
{
    StorageBudget b;
    // Signature entry: tag 16 + offset 6 + signature 12 + lru 4.
    b.add("spp.signature_table", sig_table_.size() * std::uint64_t{38});
    // Pattern entry: 4 deltas × (7 + 4) + total 8.
    b.add("spp.pattern_table",
          pattern_table_.size()
              * (std::uint64_t{params_.deltas_per_pattern} * 11 + 8));
    return b;
}

void
detail::registerSppPrefetcher()
{
    using P = SppPrefetcher::Params;
    static const ParamSchema<P> schema{
        {"signature_table_entries", &P::signature_table_entries,
         "signature table entries"},
        {"pattern_table_entries", &P::pattern_table_entries,
         "pattern table entries"},
        {"deltas_per_pattern", &P::deltas_per_pattern,
         "delta slots per pattern entry"},
        {"max_lookahead", &P::max_lookahead,
         "maximum lookahead depth per trigger"},
        {"lookahead_cutoff", &P::lookahead_cutoff,
         "stop the lookahead below this path confidence (percent)"},
        {"fill_threshold", &P::fill_threshold,
         "fill L2 at or above this confidence, else demote to LLC"},
        {"aggressive", &P::aggressive,
         "PPF companion mode: prefetch more, let the filter prune"},
    };
    PrefetcherRegistry::instance().add(
        "spp", schema, [](const Config &cfg) {
            return std::make_unique<SppPrefetcher>(schema.parse(cfg));
        });
}

} // namespace tlpsim
