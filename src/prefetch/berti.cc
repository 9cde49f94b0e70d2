#include "prefetch/berti.hh"

#include "common/bitops.hh"
#include "prefetch/factory.hh"

namespace tlpsim
{

BertiPrefetcher::BertiPrefetcher() : BertiPrefetcher(Params{}) {}

BertiPrefetcher::BertiPrefetcher(const Params &p)
    : params_(p),
      table_(std::size_t{p.table_entries} << p.table_scale_shift),
      window_(p.initial_window),
      table_index_bits_(log2i(table_.size()))
{
    for (auto &e : table_) {
        e.history.resize(p.history_per_ip);
        e.deltas.resize(p.deltas_per_ip);
    }
}

// tlpsim:hot

BertiPrefetcher::IpEntry *
BertiPrefetcher::entryFor(Addr ip, bool allocate)
{
    std::size_t idx = foldedXor(ip >> 2, table_index_bits_)
        & (table_.size() - 1);
    auto tag = static_cast<std::uint16_t>(bits(ip, 2, 12));
    IpEntry &e = table_[idx];
    if (e.valid && e.tag == tag)
        return &e;
    if (!allocate)
        return nullptr;
    e.tag = tag;
    e.valid = true;
    e.head = 0;
    e.count = 0;
    for (auto &d : e.deltas)
        d = DeltaRec{};
    return &e;
}

void
BertiPrefetcher::scoreDeltas(IpEntry &e, Addr line, Cycle now)
{
    // A delta is *timely* if prefetching line = old.line + delta at the
    // time of the old access would have completed by now: i.e. the old
    // access is at least one timeliness window in the past.
    for (unsigned i = 0; i < e.count; ++i) {
        const HistoryRec &h
            = e.history[(e.head + e.history.size() - 1 - i)
                        % e.history.size()];
        if (now - h.when < window_)
            continue;   // too recent: a prefetch would have been late
        int delta = static_cast<int>(static_cast<std::int64_t>(line)
                                     - static_cast<std::int64_t>(h.line));
        if (delta == 0 || delta > 63 || delta < -63)
            continue;
        // Credit the matching delta entry, or allocate over the weakest.
        DeltaRec *slot = nullptr;
        DeltaRec *weakest = &e.deltas[0];
        for (auto &d : e.deltas) {
            if (d.conf > 0 && d.delta == delta) {
                slot = &d;
                break;
            }
            if (d.conf < weakest->conf)
                weakest = &d;
        }
        if (slot == nullptr) {
            if (weakest->conf == 0) {
                weakest->delta = delta;
                weakest->conf = 1;
            } else {
                --weakest->conf;
            }
        } else if (slot->conf < 8) {
            ++slot->conf;
        }
        break;   // score against the single best (oldest timely) match
    }
}

void
BertiPrefetcher::onAccess(const PrefetchTrigger &trigger,
                          std::vector<PrefetchCandidate> &out)
{
    if (trigger.type != AccessType::Load
        && trigger.type != AccessType::Rfo) {
        return;
    }

    const Addr line = blockNumber(trigger.vaddr);
    const Addr page_first_line = blockNumber(trigger.vaddr & ~kPageMask);
    const Addr page_last_line = page_first_line + kLinesPerPage - 1;

    IpEntry &e = *entryFor(trigger.ip, true);
    scoreDeltas(e, line, trigger.now);

    // Issue the confident timely deltas.
    for (const auto &d : e.deltas) {
        if (d.conf < params_.issue_confidence || d.delta == 0)
            continue;
        std::int64_t t = static_cast<std::int64_t>(line) + d.delta;
        if (t < static_cast<std::int64_t>(page_first_line)
            || t > static_cast<std::int64_t>(page_last_line)) {
            continue;
        }
        out.push_back({static_cast<Addr>(t) << kBlockBits, 1, 0});   // tlpsim:waive(hotpath) caller-reserved
    }

    // Record this access.
    e.history[e.head] = {line, trigger.now};
    e.head = (e.head + 1) % e.history.size();
    if (e.count < e.history.size())
        ++e.count;
}

void
BertiPrefetcher::onFill(Addr vaddr, Addr ip, MemLevel served_by,
                        Cycle miss_latency)
{
    (void)vaddr;
    (void)ip;
    if (served_by != MemLevel::Dram || miss_latency == 0)
        return;
    // Track the DRAM round-trip with an EMA: deltas must cover this much
    // latency to be considered timely.
    window_ = (window_ * 7 + miss_latency) / 8;
    if (window_ < 20)
        window_ = 20;
}

// tlpsim:endhot

StorageBudget
BertiPrefetcher::storage() const
{
    StorageBudget b;
    // Per IP entry: tag 12 + history (8 × (16-bit line hash + 12-bit time))
    // + deltas (4 × (7 + 3)).
    std::uint64_t per_entry = 12
        + std::uint64_t{params_.history_per_ip} * 28
        + std::uint64_t{params_.deltas_per_ip} * 10;
    b.add("berti.table", table_.size() * per_entry);
    return b;
}

void
detail::registerBertiPrefetcher()
{
    using P = BertiPrefetcher::Params;
    static const ParamSchema<P> schema{
        {"table_entries", &P::table_entries,
         "per-IP delta-tracking table entries"},
        {"history_per_ip", &P::history_per_ip,
         "access-history slots kept per IP"},
        {"deltas_per_ip", &P::deltas_per_ip,
         "evaluated deltas tracked per IP"},
        {"issue_confidence", &P::issue_confidence,
         "confidence (of 8) a delta needs before issuing"},
        {"initial_window", &P::initial_window,
         "initial timeliness window (cycles); adapts to miss latency"},
        {"table_scale_shift", &P::table_scale_shift,
         "left-shift on table sizes (Fig. 17 \"+7KB Berti\")"},
    };
    PrefetcherRegistry::instance().add(
        "berti", schema, [](const Config &cfg) {
            return std::make_unique<BertiPrefetcher>(schema.parse(cfg));
        });
}

} // namespace tlpsim
