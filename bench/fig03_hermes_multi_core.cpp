/**
 * @file
 * Figure 3: increase in DRAM transactions due to Hermes in the 4-core
 * context, across SPEC and GAP workload mixes.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

int
main()
{
    printBanner("Figure 3 — Hermes DRAM pressure, 4-core mixes",
                "Fig. 3 (ΔDRAM txns, multi-core)");

    auto ws = benchWorkloads();
    auto mixes = benchMixSet(ws);
    SystemConfig base_cfg = benchConfigMc();
    SystemConfig hermes_cfg = benchConfigMc("ipcp",
                                            SchemeConfig::fromName("hermes"));
    prewarmMixes(ws, mixes, {base_cfg, hermes_cfg});

    TablePrinter tp({"mix", "suite", "dram_base", "dram_hermes",
                     "increase"}, 18);
    tp.printHeader("Figure 3: DRAM transaction increase from Hermes "
                   "(4-core)");
    SuiteSummary delta;
    for (const auto &mix : mixes) {
        const SimResult &b = runMixCached(ws, mix, base_cfg);
        const SimResult &h = runMixCached(ws, mix, hermes_cfg);
        double pct = experiment::percentDelta(
            static_cast<double>(h.dramTransactions()),
            static_cast<double>(b.dramTransactions()));
        delta.add(mix.suite, pct);
        tp.printRow({mix.name, toString(mix.suite),
                     std::to_string(b.dramTransactions()),
                     std::to_string(h.dramTransactions()),
                     TablePrinter::fmtPct(pct)});
    }
    tp.printSeparator();
    tp.printRow({"AVG SPEC", "", "", "",
                 TablePrinter::fmtPct(delta.specMean())});
    tp.printRow({"AVG GAP", "", "", "",
                 TablePrinter::fmtPct(delta.gapMean())});
    tp.printRow({"AVG ALL", "", "", "",
                 TablePrinter::fmtPct(delta.allMean())});
    std::printf("\npaper shape: Hermes increases multi-core DRAM traffic, "
                "more for GAP mixes than SPEC mixes (paper: +9.6%% GAP vs "
                "+2.2%% SPEC).\n");
    return 0;
}
