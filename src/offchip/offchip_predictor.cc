#include "offchip/offchip_predictor.hh"

#include "common/config.hh"
#include "prefetch/factory.hh"

namespace tlpsim
{

OffChipPredictor::OffChipPredictor(const Params &p, StatGroup *stats)
    : params_(p), features_(legacyHermesFeatures()),
      perceptron_(p.name, featureTables(features_, p.table_scale_shift),
                  p.training_threshold),
      page_buffer_({64, 4, p.name + ".page_buffer"}),
      pred_offchip_(stats->counter(p.name + ".pred_offchip")),
      pred_onchip_(stats->counter(p.name + ".pred_onchip")),
      spec_now_(stats->counter(p.name + ".spec_now")),
      delayed_(stats->counter(p.name + ".delayed")),
      train_correct_(stats->counter(p.name + ".train_correct")),
      train_wrong_(stats->counter(p.name + ".train_wrong"))
{
}

// predictLoad/train run once per load (the paper's per-access FLP
// consult-and-train path); no allocation allowed here
// (tlpsim-audit's hotpath check).
// tlpsim:hot

OffChipPredictor::Decision
OffChipPredictor::predictLoad(Addr ip, Addr vaddr)
{
    Decision d;
    FeatureContext ctx;
    ctx.pc = ip;
    ctx.addr = vaddr;
    ctx.first_access = page_buffer_.firstAccess(vaddr);
    ctx.last_pcs_hash = pc_history_.hash();
    pc_history_.push(ip);

    d.meta.num_features = static_cast<std::uint8_t>(features_.size());
    for (std::size_t t = 0; t < features_.size(); ++t) {
        d.meta.index[t] = perceptron_.indexFor(
            static_cast<unsigned>(t), featureValue(features_[t], ctx));
    }
    int sum = perceptron_.predict(d.meta.index.data(),
                                  d.meta.num_features);
    d.meta.confidence = static_cast<std::int16_t>(sum);
    d.meta.valid = true;

    switch (params_.policy) {
      case OffchipPolicy::Immediate:
        d.spec_now = sum >= params_.tau_high;
        d.predicted_offchip = d.spec_now;
        break;
      case OffchipPolicy::AlwaysDelay:
        d.delayed_flag = sum >= params_.tau_low;
        d.predicted_offchip = d.delayed_flag;
        break;
      case OffchipPolicy::Selective:
        if (sum >= params_.tau_high) {
            d.spec_now = true;
        } else if (sum >= params_.tau_low) {
            d.delayed_flag = true;
        }
        d.predicted_offchip = d.spec_now || d.delayed_flag;
        break;
    }
    d.meta.predicted_offchip = d.predicted_offchip;

    (d.predicted_offchip ? pred_offchip_ : pred_onchip_)->add();
    if (d.spec_now)
        spec_now_->add();
    if (d.delayed_flag)
        delayed_->add();
    return d;
}

void
OffChipPredictor::train(const PredictionMeta &meta, bool went_offchip)
{
    if (!meta.valid)
        return;
    (meta.predicted_offchip == went_offchip ? train_correct_ : train_wrong_)
        ->add();
    perceptron_.train(meta.index.data(), meta.num_features, meta.confidence,
                      went_offchip, predictThreshold());
}

// tlpsim:endhot

StorageBudget
OffChipPredictor::storage() const
{
    StorageBudget b;
    b.merge(perceptron_.storage(), "");
    b.merge(page_buffer_.storage(), "");
    return b;
}

void
detail::registerOffchipPredictors()
{
    using P = OffChipPredictor::Params;
    // Both predictors share one knob set; "flp" and "hermes" differ only
    // in the defaults object.
    auto knobs = [](const P &defaults) {
        return ParamSchema<P>(
            {
                {"name", &P::name,
                 "stat-counter prefix (per-cpu by default)"},
                {"policy", &P::policy,
                 "speculative-request policy: immediate, always_delay, "
                 "selective",
                 {"immediate", "always_delay", "selective"}},
                {"tau_high", &P::tau_high,
                 "immediate-fire threshold (Hermes tau_act / FLP tau_high)"},
                {"tau_low", &P::tau_low,
                 "predicted-off-chip threshold (FLP tau_low)"},
                {"training_threshold", &P::training_threshold,
                 "train while |sum| is below this magnitude"},
                {"table_scale_shift", &P::table_scale_shift,
                 "left-shift on perceptron table sizes (Fig. 17 \"+7KB "
                 "Hermes\")"},
            },
            defaults);
    };
    // The paper's FLP: selective-delay defaults.
    static const ParamSchema<P> flp = knobs(P{});
    // Hermes (Bera et al., MICRO 2022): one aggressive activation
    // threshold, always-immediate speculative requests.
    static const ParamSchema<P> hermes
        = knobs(P{.policy = OffchipPolicy::Immediate, .tau_high = 4});
    OffchipRegistry::instance().add(
        "flp", flp, [](const Config &cfg, StatGroup *stats) {
            return std::make_unique<OffChipPredictor>(flp.parse(cfg), stats);
        });
    OffchipRegistry::instance().add(
        "hermes", hermes, [](const Config &cfg, StatGroup *stats) {
            return std::make_unique<OffChipPredictor>(hermes.parse(cfg),
                                                      stats);
        });
}

} // namespace tlpsim
