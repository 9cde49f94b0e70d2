#include "filter/ppf.hh"

#include "common/bitops.hh"
#include "prefetch/factory.hh"
#include "prefetch/spp.hh"

namespace tlpsim
{

namespace
{

/** PPF's nine features, all derivable from SPP-visible state. */
constexpr unsigned kNumPpfFeatures = 9;

std::vector<HashedPerceptron::TableSpec>
ppfTables()
{
    // 4096-entry tables of 5-bit weights ≈ the paper's ~40 KB budget.
    return {
        {"ppf.base_addr", 4096},   {"ppf.line_offset", 4096},
        {"ppf.page_addr", 4096},   {"ppf.pc", 4096},
        {"ppf.pc_xor_delta", 4096}, {"ppf.pc_xor_offset", 4096},
        {"ppf.signature", 4096},   {"ppf.confidence", 4096},
        {"ppf.depth_xor_offset", 4096},
    };
}

} // namespace

Ppf::Ppf(const Params &p, StatGroup *stats)
    : params_(p),
      perceptron_(p.name, ppfTables(), p.training_threshold),
      prefetch_table_(p.prefetch_table_entries),
      reject_table_(p.reject_table_entries),
      accepted_l2_(stats->counter(p.name + ".accepted_l2")),
      demoted_llc_(stats->counter(p.name + ".demoted_llc")),
      rejected_(stats->counter(p.name + ".rejected")),
      train_useful_(stats->counter(p.name + ".train_useful")),
      train_useless_(stats->counter(p.name + ".train_useless")),
      train_missed_reject_(stats->counter(p.name + ".train_missed_reject"))
{
}

// allow() runs once per L2 prefetch candidate and the training callbacks
// once per demand access or eviction they match.
// tlpsim:hot

void
Ppf::computeIndices(const PrefetchTrigger &trigger, Addr pf_paddr,
                    std::uint32_t pf_metadata, std::uint16_t *out) const
{
    unsigned conf = SppPrefetcher::metaConfidence(pf_metadata);
    std::uint16_t sig = SppPrefetcher::metaSignature(pf_metadata);
    unsigned depth = SppPrefetcher::metaDepth(pf_metadata);

    Addr line = blockNumber(pf_paddr);
    std::int64_t delta = static_cast<std::int64_t>(blockNumber(pf_paddr))
        - static_cast<std::int64_t>(blockNumber(trigger.paddr));
    std::uint64_t values[kNumPpfFeatures] = {
        line,
        lineOffsetInPage(pf_paddr),
        pageNumber(pf_paddr),
        trigger.ip,
        trigger.ip ^ static_cast<std::uint64_t>(delta),
        trigger.ip ^ lineOffsetInPage(pf_paddr),
        sig,
        conf,
        (std::uint64_t{depth} << 6) ^ lineOffsetInPage(pf_paddr),
    };
    for (unsigned t = 0; t < kNumPpfFeatures; ++t)
        out[t] = perceptron_.indexFor(t, values[t]);
}

bool
Ppf::allow(const PrefetchTrigger &trigger, Addr pf_vaddr, Addr pf_paddr,
           std::uint32_t pf_metadata, std::uint8_t &fill_level,
           PredictionMeta &meta)
{
    (void)pf_vaddr;
    std::uint16_t index[kNumPpfFeatures];
    computeIndices(trigger, pf_paddr, pf_metadata, index);
    int sum = perceptron_.predict(index, kNumPpfFeatures);

    meta.valid = false;   // PPF keeps its own records; packets carry none

    if (sum < params_.tau_reject) {
        rejected_->add();
        insertRecord(reject_table_, pf_paddr, index, sum);
        return false;
    }
    insertRecord(prefetch_table_, pf_paddr, index, sum);
    if (sum >= params_.tau_accept) {
        accepted_l2_->add();
        // keep the prefetcher's requested fill level (L2 or better)
    } else {
        demoted_llc_->add();
        fill_level = 3;   // low confidence: stash in the LLC only
    }
    return true;
}

Ppf::Record *
Ppf::findRecord(std::vector<Record> &table, Addr paddr)
{
    Record &r = table[blockNumber(paddr) & (table.size() - 1)];
    if (r.valid && r.block == blockNumber(paddr))
        return &r;
    return nullptr;
}

void
Ppf::insertRecord(std::vector<Record> &table, Addr paddr,
                  const std::uint16_t *index, int sum)
{
    Record &r = table[blockNumber(paddr) & (table.size() - 1)];
    r.block = blockNumber(paddr);
    r.valid = true;
    std::copy(index, index + kNumPpfFeatures, r.index.begin());
    r.sum = static_cast<std::int16_t>(sum);
}

void
Ppf::onDemandHitPrefetched(Addr paddr, Addr ip)
{
    (void)ip;
    if (Record *r = findRecord(prefetch_table_, paddr)) {
        train_useful_->add();
        perceptron_.train(r->index.data(), kNumPpfFeatures, r->sum, true,
                          params_.tau_accept);
        r->valid = false;
    }
}

void
Ppf::onPrefetchedEvictUnused(Addr paddr)
{
    if (Record *r = findRecord(prefetch_table_, paddr)) {
        train_useless_->add();
        perceptron_.train(r->index.data(), kNumPpfFeatures, r->sum, false,
                          params_.tau_accept);
        r->valid = false;
    }
}

void
Ppf::onDemandMiss(Addr paddr, Addr ip)
{
    (void)ip;
    if (Record *r = findRecord(reject_table_, paddr)) {
        // We rejected a prefetch that demand traffic wanted: train
        // strongly toward accepting.
        train_missed_reject_->add();
        perceptron_.train(r->index.data(), kNumPpfFeatures, r->sum, true,
                          params_.tau_accept);
        r->valid = false;
    }
}

// tlpsim:endhot

StorageBudget
Ppf::storage() const
{
    StorageBudget b;
    b.merge(perceptron_.storage(), "");
    // Recording tables: block tag (~26 bits) + 9 indices × 12 bits + sum.
    std::uint64_t per_record = 26 + kNumPpfFeatures * 12 + 10;
    b.add(params_.name + ".prefetch_table",
          prefetch_table_.size() * per_record);
    b.add(params_.name + ".reject_table", reject_table_.size() * per_record);
    return b;
}

void
detail::registerPpfFilter()
{
    using P = Ppf::Params;
    static const ParamSchema<P> schema{
        {"name", &P::name, "stat-counter prefix (per-cpu by default)"},
        {"tau_accept", &P::tau_accept,
         "perceptron sum >= this: prefetch fills L2"},
        {"tau_reject", &P::tau_reject,
         "perceptron sum < this: prefetch dropped entirely"},
        {"training_threshold", &P::training_threshold,
         "train while |sum| is below this magnitude"},
        {"prefetch_table_entries", &P::prefetch_table_entries,
         "issued-prefetch recording table entries"},
        {"reject_table_entries", &P::reject_table_entries,
         "rejected-prefetch recording table entries"},
    };
    FilterRegistry::instance().add(
        "ppf", schema, [](const Config &cfg, StatGroup *stats) {
            return std::make_unique<Ppf>(schema.parse(cfg), stats);
        });
}

} // namespace tlpsim
