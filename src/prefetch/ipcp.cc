#include "prefetch/ipcp.hh"

#include "common/bitops.hh"
#include "prefetch/factory.hh"

namespace tlpsim
{

IpcpPrefetcher::IpcpPrefetcher() : IpcpPrefetcher(Params{}) {}

IpcpPrefetcher::IpcpPrefetcher(const Params &p)
    : params_(p),
      ip_table_(std::size_t{p.ip_table_entries} << p.table_scale_shift),
      cspt_(std::size_t{p.cspt_entries} << p.table_scale_shift),
      regions_(p.region_entries),
      ip_index_bits_(log2i(ip_table_.size()))
{
}

// tlpsim:hot

void
IpcpPrefetcher::onAccess(const PrefetchTrigger &trigger,
                         std::vector<PrefetchCandidate> &out)
{
    if (trigger.type != AccessType::Load
        && trigger.type != AccessType::Rfo) {
        return;
    }

    const Addr line = blockNumber(trigger.vaddr);
    const Addr page_first_line = blockNumber(trigger.vaddr & ~kPageMask);
    const Addr page_last_line = page_first_line + kLinesPerPage - 1;

    // --- Region tracking for GS classification -------------------------
    Addr region_base = line & ~Addr{params_.region_lines - 1};
    Region *region = nullptr;
    for (auto &r : regions_) {
        if (r.valid && r.base_line == region_base) {
            region = &r;
            break;
        }
    }
    if (region == nullptr) {
        region = &regions_[0];
        for (auto &r : regions_) {
            if (!r.valid) {
                region = &r;
                break;
            }
            if (r.lru < region->lru)
                region = &r;
        }
        *region = Region{region_base, 0, true, 0};
    }
    region->touched |= std::uint64_t{1} << (line - region_base);
    region->lru = ++lru_clock_;
    unsigned density = static_cast<unsigned>(
        __builtin_popcountll(region->touched));

    // --- Per-IP stride tracking ----------------------------------------
    std::size_t idx = foldedXor(trigger.ip >> 2, ip_index_bits_)
        & (ip_table_.size() - 1);
    auto tag = static_cast<std::uint16_t>(bits(trigger.ip, 2, 10));
    IpEntry &e = ip_table_[idx];
    if (!e.valid || e.tag != tag) {
        e = IpEntry{tag, true, line, 0, 0, 0};
        // Cold IP: fall back to next-line.
        if (line < page_last_line)
            out.push_back({(line + 1) << kBlockBits, 1, 0});   // tlpsim:waive(hotpath) caller-reserved
        return;
    }

    int delta = static_cast<int>(static_cast<std::int64_t>(line)
                                 - static_cast<std::int64_t>(e.last_line));
    if (delta == 0)
        return;   // same line: nothing to learn or prefetch

    // Train CSPT with the signature that *preceded* this delta.
    std::size_t cspt_idx = e.signature & (cspt_.size() - 1);
    CsptEntry &ce = cspt_[cspt_idx];
    if (ce.stride == delta) {
        if (ce.conf < 3)
            ++ce.conf;
    } else {
        if (ce.conf > 0)
            --ce.conf;
        else
            ce.stride = delta;
    }

    // Train the per-IP constant stride.
    if (delta == e.stride) {
        if (e.conf < 3)
            ++e.conf;
    } else {
        if (e.conf > 0)
            --e.conf;
        else
            e.stride = delta;
    }

    std::uint16_t new_sig = static_cast<std::uint16_t>(
        ((e.signature << 3) ^ static_cast<std::uint16_t>(delta & 0x3f))
        & 0xfff);
    e.signature = new_sig;
    e.last_line = line;

    // --- Classification (priority: CS > CPLX > GS > NL) -----------------
    if (e.conf >= 2 && e.stride != 0) {
        for (unsigned d = 1; d <= params_.cs_degree; ++d) {
            std::int64_t t = static_cast<std::int64_t>(line)
                + static_cast<std::int64_t>(d) * e.stride;
            if (t < static_cast<std::int64_t>(page_first_line)
                || t > static_cast<std::int64_t>(page_last_line)) {
                break;
            }
            out.push_back({static_cast<Addr>(t) << kBlockBits, 1, 0});   // tlpsim:waive(hotpath) caller-reserved
        }
        return;
    }

    // CPLX: walk the CSPT chain from the current signature.
    std::uint16_t sig = new_sig;
    std::int64_t t = static_cast<std::int64_t>(line);
    bool cplx_issued = false;
    for (unsigned d = 0; d < params_.cplx_degree; ++d) {
        const CsptEntry &c = cspt_[sig & (cspt_.size() - 1)];
        if (c.conf < 2 || c.stride == 0)
            break;
        t += c.stride;
        if (t < static_cast<std::int64_t>(page_first_line)
            || t > static_cast<std::int64_t>(page_last_line)) {
            break;
        }
        out.push_back({static_cast<Addr>(t) << kBlockBits, 1, 0});   // tlpsim:waive(hotpath) caller-reserved
        cplx_issued = true;
        sig = static_cast<std::uint16_t>(
            ((sig << 3) ^ static_cast<std::uint16_t>(c.stride & 0x3f))
            & 0xfff);
    }
    if (cplx_issued)
        return;

    // GS: dense region → deep forward stream.
    if (density >= params_.gs_dense_threshold) {
        for (unsigned d = 1; d <= params_.gs_degree; ++d) {
            Addr tl = line + d;
            if (tl > page_last_line)
                break;
            out.push_back({tl << kBlockBits, 1, 0});   // tlpsim:waive(hotpath) caller-reserved
        }
        return;
    }

    // NL fallback.
    if (line < page_last_line)
        out.push_back({(line + 1) << kBlockBits, 1, 0});   // tlpsim:waive(hotpath) caller-reserved
}

// tlpsim:endhot

StorageBudget
IpcpPrefetcher::storage() const
{
    StorageBudget b;
    // IP entry: tag 10 + line 16 + stride 7 + conf 2 + signature 12 bits.
    b.add("ipcp.ip_table", ip_table_.size() * std::uint64_t{47});
    // CSPT entry: stride 7 + conf 2.
    b.add("ipcp.cspt", cspt_.size() * std::uint64_t{9});
    b.add("ipcp.regions", regions_.size()
          * std::uint64_t{params_.region_lines + 26});
    return b;
}

void
detail::registerIpcpPrefetcher()
{
    using P = IpcpPrefetcher::Params;
    static const ParamSchema<P> schema{
        {"ip_table_entries", &P::ip_table_entries,
         "IP classification table entries"},
        {"cspt_entries", &P::cspt_entries,
         "complex-stride prediction table entries"},
        {"region_entries", &P::region_entries,
         "tracked global-stream regions"},
        {"region_lines", &P::region_lines, "lines in a tracked GS region"},
        {"gs_dense_threshold", &P::gs_dense_threshold,
         "dense-region threshold for GS classification"},
        {"cs_degree", &P::cs_degree, "constant-stride prefetch degree"},
        {"cplx_degree", &P::cplx_degree, "complex-stride prefetch degree"},
        {"gs_degree", &P::gs_degree, "global-stream prefetch degree"},
        {"table_scale_shift", &P::table_scale_shift,
         "left-shift on table sizes (Fig. 17 \"+7KB IPCP\")"},
    };
    PrefetcherRegistry::instance().add(
        "ipcp", schema, [](const Config &cfg) {
            return std::make_unique<IpcpPrefetcher>(schema.parse(cfg));
        });
}

} // namespace tlpsim
