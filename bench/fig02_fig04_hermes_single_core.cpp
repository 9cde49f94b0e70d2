/**
 * @file
 * Figure 2: increase in DRAM transactions due to Hermes (single-core).
 * Figure 4: where the block actually lives when Hermes predicts off-chip
 *           (L1D / L2C / LLC / DRAM breakdown of speculative requests).
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

int
main()
{
    printBanner("Figures 2 & 4 — Hermes DRAM pressure and prediction "
                "outcome",
                "Fig. 2 (ΔDRAM txns) and Fig. 4 (prediction breakdown)");

    auto ws = benchWorkloads();
    SystemConfig base_cfg = benchConfig();
    SystemConfig hermes_cfg = benchConfig("ipcp",
                                          SchemeConfig::fromName("hermes"));
    prewarm(ws, {base_cfg, hermes_cfg});

    TablePrinter tp2({"workload", "suite", "dram_base", "dram_hermes",
                      "increase"});
    tp2.printHeader("Figure 2: DRAM transaction increase from Hermes");
    SuiteSummary delta;
    for (const auto &w : ws) {
        const SimResult &b = run(w, base_cfg);
        const SimResult &h = run(w, hermes_cfg);
        double pct = experiment::percentDelta(
            static_cast<double>(h.dramTransactions()),
            static_cast<double>(b.dramTransactions()));
        delta.add(w.suite, pct);
        tp2.printRow({w.name, toString(w.suite),
                      std::to_string(b.dramTransactions()),
                      std::to_string(h.dramTransactions()),
                      TablePrinter::fmtPct(pct)});
    }
    tp2.printSeparator();
    tp2.printRow({"AVG SPEC", "", "", "",
                  TablePrinter::fmtPct(delta.specMean())});
    tp2.printRow({"AVG GAP", "", "", "",
                  TablePrinter::fmtPct(delta.gapMean())});
    tp2.printRow({"AVG ALL", "", "", "",
                  TablePrinter::fmtPct(delta.allMean())});
    std::printf("\npaper shape: Hermes *increases* DRAM transactions "
                "(paper: +5.2%% SPEC, +6.6%% GAP single-core).\n");

    TablePrinter tp4({"workload", "in L1D", "in L2C", "in LLC",
                      "in DRAM"});
    tp4.printHeader("Figure 4: location of block upon off-chip prediction "
                    "(% of speculative requests)");
    double sums[4] = {};
    int n = 0;
    for (const auto &w : ws) {
        const SimResult &h = run(w, hermes_cfg);
        double c[4] = {
            static_cast<double>(h.stat("oracle.spec_block_in_l1d")),
            static_cast<double>(h.stat("oracle.spec_block_in_l2c")),
            static_cast<double>(h.stat("oracle.spec_block_in_llc")),
            static_cast<double>(h.stat("oracle.spec_block_in_dram")),
        };
        double total = c[0] + c[1] + c[2] + c[3];
        if (total == 0)
            continue;
        std::vector<std::string> row{w.name};
        for (int i = 0; i < 4; ++i) {
            row.push_back(TablePrinter::fmt(c[i] / total * 100.0, 1) + "%");
            sums[i] += c[i] / total * 100.0;
        }
        ++n;
        tp4.printRow(row);
    }
    tp4.printSeparator();
    if (n > 0) {
        tp4.printRow({"AVG", TablePrinter::fmt(sums[0] / n, 1) + "%",
                      TablePrinter::fmt(sums[1] / n, 1) + "%",
                      TablePrinter::fmt(sums[2] / n, 1) + "%",
                      TablePrinter::fmt(sums[3] / n, 1) + "%"});
    }
    std::printf("\npaper shape: ~58%% of predictions are truly off-chip; "
                "a significant share of the wrong ones sit in the L1D — "
                "the motivation for FLP's selective delay.\n");
    return 0;
}
