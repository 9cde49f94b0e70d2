/**
 * @file
 * The single-core headline evaluation:
 *   Figure 10: speedup of PPF / Hermes / Hermes+PPF / TLP over baseline,
 *              for IPCP (10a) and Berti (10b) at L1D;
 *   Figure 11: increase in DRAM transactions, same design points;
 *   Figure 12: L1D prefetcher accuracy under each scheme.
 *
 * One simulation per (workload, scheme, prefetcher); the three figures
 * are different projections of the same runs.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

void
evaluatePrefetcher(const std::vector<workloads::WorkloadSpec> &ws,
                   const std::string &pf, const char *tag)
{
    auto schemes = SchemeConfig::paperSchemes();
    SystemConfig base_cfg = benchConfig(pf);

    // --- Figure 10: speedup ------------------------------------------------
    {
        TablePrinter tp({"workload", "suite", "ppf", "hermes",
                         "hermes+ppf", "tlp"});
        tp.printHeader(std::string("Figure 10") + tag
                       + ": speedup over baseline (%)");
        std::map<std::string, SuiteSummary> summary;
        for (const auto &w : ws) {
            const SimResult &b = run(w, base_cfg);
            std::vector<std::string> row{w.name, toString(w.suite)};
            for (const auto &s : schemes) {
                const SimResult &r = run(w, benchConfig(pf, s));
                double pct = experiment::percentDelta(r.ipc[0], b.ipc[0]);
                summary[s.name].add(w.suite, pct);
                row.push_back(TablePrinter::fmtPct(pct));
            }
            tp.printRow(row);
        }
        tp.printSeparator();
        for (const char *agg : {"SPEC", "GAP", "GEOMEAN"}) {
            std::vector<std::string> row{std::string("GM ") + agg, ""};
            for (const auto &s : schemes) {
                SuiteSummary &sum = summary[s.name];
                double v = agg[0] == 'S' ? sum.specMean()
                    : (agg[0] == 'G' && agg[1] == 'A' ? sum.gapMean()
                                                      : sum.allMean());
                row.push_back(TablePrinter::fmtPct(v));
            }
            tp.printRow(row);
        }
    }

    // --- Figure 11: DRAM transaction increase -------------------------------
    {
        TablePrinter tp({"workload", "suite", "ppf", "hermes",
                         "hermes+ppf", "tlp"});
        tp.printHeader(std::string("Figure 11") + tag
                       + ": DRAM transaction increase over baseline (%)");
        std::map<std::string, std::vector<double>> deltas;
        for (const auto &w : ws) {
            const SimResult &b = run(w, base_cfg);
            std::vector<std::string> row{w.name, toString(w.suite)};
            for (const auto &s : schemes) {
                const SimResult &r = run(w, benchConfig(pf, s));
                double pct = experiment::percentDelta(
                    static_cast<double>(r.dramTransactions()),
                    static_cast<double>(b.dramTransactions()));
                deltas[s.name].push_back(pct);
                row.push_back(TablePrinter::fmtPct(pct));
            }
            tp.printRow(row);
        }
        tp.printSeparator();
        std::vector<std::string> row{"ARITH MEAN", ""};
        for (const auto &s : schemes) {
            double sum = 0;
            for (double d : deltas[s.name])
                sum += d;
            row.push_back(TablePrinter::fmtPct(
                sum / static_cast<double>(deltas[s.name].size())));
        }
        tp.printRow(row);
    }

    // --- Figure 12: prefetcher accuracy --------------------------------------
    {
        TablePrinter tp({"scheme", "SPEC acc", "GAP acc", "ALL acc"});
        tp.printHeader(std::string("Figure 12") + tag
                       + ": L1D prefetcher accuracy (%)");
        auto with_base = schemes;
        with_base.insert(with_base.begin(),
                         SchemeConfig::fromName("baseline"));
        for (const auto &s : with_base) {
            double acc[3] = {};
            int n[3] = {};
            for (const auto &w : ws) {
                const SimResult &r = run(w, benchConfig(pf, s));
                int suite = w.suite == workloads::Suite::Gap ? 1 : 0;
                acc[suite] += r.l1dPrefetchAccuracy() * 100.0;
                acc[2] += r.l1dPrefetchAccuracy() * 100.0;
                ++n[suite];
                ++n[2];
            }
            tp.printRow({s.name,
                         TablePrinter::fmt(n[0] ? acc[0] / n[0] : 0, 1),
                         TablePrinter::fmt(n[1] ? acc[1] / n[1] : 0, 1),
                         TablePrinter::fmt(n[2] ? acc[2] / n[2] : 0, 1)});
        }
    }
}

} // namespace

int
main()
{
    printBanner("Figures 10, 11, 12 — single-core evaluation",
                "Fig. 10 (speedup), Fig. 11 (ΔDRAM), Fig. 12 (accuracy); "
                "(a)=IPCP, (b)=Berti");

    auto ws = benchWorkloads();
    // Queue both prefetchers' full grids before rendering anything.
    for (const char *pf : {"ipcp", "berti"}) {
        std::vector<SystemConfig> grid{benchConfig(pf)};
        for (const auto &s : SchemeConfig::paperSchemes())
            grid.push_back(benchConfig(pf, s));
        prewarm(ws, grid);
    }
    evaluatePrefetcher(ws, "ipcp", "a (IPCP)");
    evaluatePrefetcher(ws, "berti", "b (Berti)");

    std::printf("\npaper shape: TLP wins the speedup geomean and is the "
                "only scheme that *reduces* DRAM transactions; TLP gives "
                "the highest prefetcher accuracy; GAP gains exceed "
                "SPEC.\n");
    return 0;
}
