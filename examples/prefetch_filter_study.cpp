/**
 * @file
 * Prefetch-filtering study: watch SLP work.
 *
 * Runs an irregular pointer-heavy workload (deepsjeng-like transposition
 * table) and a regular streaming workload (lbm-like stencil) with IPCP at
 * L1D, comparing no filter vs SLP. Prints the filter's own view: how many
 * candidates it allowed/dropped, its training accuracy, and what that did
 * to prefetch usefulness and DRAM traffic — Finding 4 in action, plus the
 * streaming case where a good filter must get out of the way.
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace tlpsim;
using namespace tlpsim::workloads;

int
main()
{
    for (SpecKernel kernel :
         {SpecKernel::DeepsjengTt, SpecKernel::LbmStencil}) {
        WorkloadSpec w;
        w.name = toString(kernel);
        w.suite = Suite::Spec;
        w.record = [kernel](TraceRecorder &rec, std::uint64_t seed) {
            recordSpecKernel(kernel, rec, seed, 2);
        };

        std::printf("\n==== workload: %s ====\n", w.name.c_str());
        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.warmup_instrs = 80'000;
        cfg.sim_instrs = 250'000;

        for (bool use_slp : {false, true}) {
            cfg.scheme = use_slp ? SchemeConfig::fromName("tlp")
                                 : SchemeConfig::fromName("baseline");
            SimResult r = experiment::runSingleCore(w, cfg);

            std::printf("\n  [%s]\n", use_slp ? "TLP (SLP filter on)"
                                              : "baseline (no filter)");
            std::printf("    IPC                 : %.3f\n", r.ipc[0]);
            std::printf("    DRAM transactions   : %llu\n",
                        static_cast<unsigned long long>(
                            r.dramTransactions()));
            std::printf("    L1D pf issued       : %llu\n",
                        static_cast<unsigned long long>(
                            r.stat("cpu0.l1d.pf_issued")));
            std::printf("    L1D pf useful       : %llu\n",
                        static_cast<unsigned long long>(
                            r.stat("cpu0.l1d.pf_useful")));
            std::printf("    L1D pf useless      : %llu\n",
                        static_cast<unsigned long long>(
                            r.stat("cpu0.l1d.pf_useless")));
            std::printf("    L1D pf accuracy     : %.1f%%\n",
                        r.l1dPrefetchAccuracy() * 100.0);
            if (use_slp) {
                std::printf("    SLP allowed/dropped : %llu / %llu "
                            "(+%llu probation)\n",
                            static_cast<unsigned long long>(
                                r.stat("cpu0.slp.allowed")),
                            static_cast<unsigned long long>(
                                r.stat("cpu0.slp.dropped")),
                            static_cast<unsigned long long>(
                                r.stat("cpu0.slp.probation")));
                std::printf("    SLP train right/wrong: %llu / %llu\n",
                            static_cast<unsigned long long>(
                                r.stat("cpu0.slp.train_correct")),
                            static_cast<unsigned long long>(
                                r.stat("cpu0.slp.train_wrong")));
            }
        }
    }
    std::printf("\ntakeaway: on the irregular table workload SLP drops "
                "most prefetches (they'd come from DRAM and miss), "
                "cutting DRAM traffic; on the stream it learns the "
                "prefetches are serviced on-chip and lets them "
                "through.\n");
    return 0;
}
