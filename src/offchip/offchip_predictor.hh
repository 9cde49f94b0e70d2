/**
 * @file
 * Off-chip predictors for demand loads: Hermes (the baseline, single
 * activation threshold, always-immediate speculative requests) and the
 * paper's FLP (two thresholds τ_high / τ_low driving the novel selective
 * delay mechanism), plus the always-delay ablation mode of Fig. 15.
 *
 * One instance per core. The predictor is consulted when a load's address
 * is known; its Decision tells the core whether to fire a speculative
 * DRAM request immediately, tag the load for issue-on-L1D-miss, or do
 * nothing. Training happens when the load completes, against the true
 * "was served by DRAM" outcome.
 */

#ifndef TLPSIM_OFFCHIP_OFFCHIP_PREDICTOR_HH
#define TLPSIM_OFFCHIP_OFFCHIP_PREDICTOR_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "common/storage.hh"
#include "mem/packet.hh"
#include "offchip/feature.hh"
#include "offchip/page_buffer.hh"
#include "offchip/perceptron.hh"

namespace tlpsim
{

/** When a positive off-chip prediction fires the DRAM request. The
 *  "policy" knob names the enumerators in declaration order: immediate,
 *  always_delay, selective. */
enum class OffchipPolicy
{
    Immediate,   ///< Hermes / "FLP w/o selective delay": fire at the core
    AlwaysDelay, ///< Fig. 15 "Delayed TSP": fire only on L1D miss
    Selective,   ///< the paper's FLP: τ_high fires now, [τ_low, τ_high) delays
};

class OffChipPredictor
{
  public:
    struct Params
    {
        std::string name = "flp";
        OffchipPolicy policy = OffchipPolicy::Selective;
        /** Immediate-fire threshold (Hermes τ_act / FLP τ_high). */
        int tau_high = 30;
        /** Predicted-off-chip threshold (FLP τ_low; Hermes uses τ_high). */
        int tau_low = 8;
        int training_threshold = 30;
        /** Table scaling for the Fig. 17 "+7KB Hermes" design. */
        unsigned table_scale_shift = 0;
    };

    OffChipPredictor(const Params &p, StatGroup *stats);

    /** What to do with this load. */
    struct Decision
    {
        bool spec_now = false;       ///< issue speculative DRAM read now
        bool delayed_flag = false;   ///< issue it if the L1D lookup misses
        bool predicted_offchip = false;
        PredictionMeta meta;         ///< stored in the LQ for training
    };

    Decision predictLoad(Addr ip, Addr vaddr);

    /** Train against the final outcome of the load. */
    void train(const PredictionMeta &meta, bool went_offchip);

    StorageBudget storage() const;

    const Params &params() const { return params_; }

    /** Threshold separating "predicted off-chip" from not. */
    int
    predictThreshold() const
    {
        return params_.policy == OffchipPolicy::Immediate ? params_.tau_high
                                                          : params_.tau_low;
    }

  private:
    Params params_;
    std::vector<FeatureKind> features_;
    HashedPerceptron perceptron_;
    PageBuffer page_buffer_;
    LoadPcHistory pc_history_;

    Counter *pred_offchip_;
    Counter *pred_onchip_;
    Counter *spec_now_;
    Counter *delayed_;
    Counter *train_correct_;
    Counter *train_wrong_;
};

} // namespace tlpsim

#endif // TLPSIM_OFFCHIP_OFFCHIP_PREDICTOR_HH
