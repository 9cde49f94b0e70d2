#include "offchip/slp.hh"

#include "prefetch/factory.hh"

namespace tlpsim
{

Slp::Slp(const Params &p, StatGroup *stats)
    : params_(p), features_(slpFeatures(p.use_flp_feature)),
      perceptron_(p.name, featureTables(features_, p.table_scale_shift),
                  p.training_threshold),
      page_buffer_({64, 4, p.name + ".page_buffer"}),
      allowed_(stats->counter(p.name + ".allowed")),
      dropped_(stats->counter(p.name + ".dropped")),
      probation_(stats->counter(p.name + ".probation")),
      train_correct_(stats->counter(p.name + ".train_correct")),
      train_wrong_(stats->counter(p.name + ".train_wrong"))
{
}

// tlpsim:hot

bool
Slp::allow(const PrefetchTrigger &trigger, Addr pf_vaddr, Addr pf_paddr,
           std::uint32_t pf_metadata, std::uint8_t &fill_level,
           PredictionMeta &meta)
{
    (void)pf_vaddr;
    (void)pf_metadata;
    (void)fill_level;

    FeatureContext ctx;
    ctx.pc = trigger.ip;
    ctx.addr = pf_paddr;                    // physical: SLP is post-L1D
    ctx.first_access = page_buffer_.firstAccess(pf_paddr);
    ctx.last_pcs_hash = pc_history_.hash();
    ctx.flp_pred = trigger.offchip_pred;    // FLP output bit of the demand
    pc_history_.push(trigger.ip);

    meta.num_features = static_cast<std::uint8_t>(features_.size());
    for (std::size_t t = 0; t < features_.size(); ++t) {
        meta.index[t] = perceptron_.indexFor(
            static_cast<unsigned>(t), featureValue(features_[t], ctx));
    }
    int sum = perceptron_.predict(meta.index.data(), meta.num_features);
    meta.confidence = static_cast<std::int16_t>(sum);
    meta.predicted_offchip = sum >= params_.tau_pref;
    meta.valid = true;

    if (meta.predicted_offchip) {
        if (params_.probation_period != 0
            && ++probation_counter_ >= params_.probation_period) {
            // Let a sampled candidate through so its completion can
            // retrain the weights if the phase changed.
            probation_counter_ = 0;
            probation_->add();
            return true;
        }
        // Predicted to be served from DRAM → likely useless: discard.
        dropped_->add();
        return false;
    }
    allowed_->add();
    return true;
}

void
Slp::onPrefetchFill(const Packet &pkt)
{
    if (!pkt.pred_meta.valid)
        return;
    bool went_offchip = pkt.served_by == MemLevel::Dram;
    (pkt.pred_meta.predicted_offchip == went_offchip ? train_correct_
                                                     : train_wrong_)
        ->add();
    perceptron_.train(pkt.pred_meta.index.data(), pkt.pred_meta.num_features,
                      pkt.pred_meta.confidence, went_offchip,
                      params_.tau_pref);
}

// tlpsim:endhot

StorageBudget
Slp::storage() const
{
    StorageBudget b;
    b.merge(perceptron_.storage(), "");
    b.merge(page_buffer_.storage(), "");
    return b;
}

void
detail::registerSlpFilter()
{
    using P = Slp::Params;
    static const ParamSchema<P> schema{
        {"name", &P::name, "stat-counter prefix (per-cpu by default)"},
        {"tau_pref", &P::tau_pref,
         "drop threshold: sum >= tau_pref predicts off-chip"},
        {"training_threshold", &P::training_threshold,
         "train while |sum| is below this magnitude"},
        {"use_flp_feature", &P::use_flp_feature,
         "feed the FLP confidence output in as a feature"},
        {"table_scale_shift", &P::table_scale_shift,
         "left-shift on perceptron table sizes"},
        {"probation_period", &P::probation_period,
         "issue every Nth predicted-off-chip prefetch anyway (0 = never)"},
    };
    FilterRegistry::instance().add(
        "slp", schema, [](const Config &cfg, StatGroup *stats) {
            return std::make_unique<Slp>(schema.parse(cfg), stats);
        });
}

} // namespace tlpsim
