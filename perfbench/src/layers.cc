/**
 * @file
 * Per-layer counts read from SimResult.stats. They are deterministic for
 * a seed, so they explain a move in the tlp_* metrics (a model change)
 * and, as calls per kilo-instruction, how much work each layer's host
 * code is handed (calls x ns per call = the layer's busy time).
 */

#include "bench.hh"

namespace perfbench
{

using tlpsim::SimResult;

Metrics
countMetrics(const std::vector<const SimResult *> &results)
{
    double kinstr = 0.0;
    for (const SimResult *r : results)
        kinstr += static_cast<double>(r->totalInstrs()) / 1000.0;

    // Per-core counters ("cpuN.<suffix>") and shared ones ("llc.", "dram.").
    auto core = [&](const char *suffix) {
        double v = 0.0;
        for (const SimResult *r : results)
            v += static_cast<double>(r->sumOverCores(suffix));
        return v;
    };
    auto shared = [&](const char *name) {
        double v = 0.0;
        for (const SimResult *r : results)
            v += static_cast<double>(r->stat(name));
        return v;
    };
    auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    auto pki = [&](double count) { return ratio(count, kinstr); };

    // The off-chip predictor's stat group is "cpuN.flp" for Hermes too.
    const double flp_calls = core("flp.pred_offchip") + core("flp.pred_onchip");
    const double slp_calls
        = core("slp.allowed") + core("slp.dropped") + core("slp.probation");
    const double ppf_calls = core("ppf.accepted_l2") + core("ppf.demoted_llc")
        + core("ppf.rejected");
    const double l1d_pf_candidates = core("l1d.pf_issued")
        + core("l1d.pf_filtered") + core("l1d.pf_dropped_queue");

    return {
        {"offchip.flp_pki", pki(flp_calls)},
        {"offchip.slp_pki", pki(slp_calls)},
        {"filter.ppf_pki", pki(ppf_calls)},
        {"cache.l1d_pf_pki", pki(l1d_pf_candidates)},
        {"core.loads_pki", pki(core("loads"))},
        {"cache.l1d_miss_pki", pki(core("l1d.load_miss"))},
        {"cache.l1d_miss_per_load",
         ratio(core("l1d.load_miss"), core("loads"))},
        {"cache.llc_miss_pki", pki(shared("llc.load_miss"))},
        {"cache.l1d_pf_accuracy",
         ratio(core("l1d.pf_useful"),
               core("l1d.pf_useful") + core("l1d.pf_useless"))},
        {"offchip.flp_accuracy",
         ratio(core("flp.train_correct"),
               core("flp.train_correct") + core("flp.train_wrong"))},
        {"offchip.slp_drop_frac", ratio(core("slp.dropped"), slp_calls)},
        // Delayed speculative reads issued per FLP delay decision: above 1
        // when an L1D miss that finds the MSHRs full repeats the issue on
        // every retry.
        {"offchip.delay_reissue_ratio",
         ratio(core("l1d.spec_delayed_issued"), core("flp.delayed"))},
        {"filter.ppf_reject_frac", ratio(core("ppf.rejected"), ppf_calls)},
        {"mem.dram_txn_pki", pki(shared("dram.transactions"))},
        {"mem.row_hit_frac",
         ratio(shared("dram.row_hit"),
               shared("dram.row_hit") + shared("dram.row_miss"))},
        {"mem.spec_useful_frac",
         ratio(shared("dram.spec_consumed"), shared("dram.spec_issued"))},
        {"tlb.stlb_miss_pki", pki(core("stlb.miss"))},
    };
}

} // namespace perfbench
