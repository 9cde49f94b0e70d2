/**
 * @file
 * Figure 17: designs enhanced with TLP's 7 KB storage budget — IPCP+7KB,
 * Berti+7KB (4x prefetcher tables) and Hermes+7KB (4x weight tables) vs
 * TLP, single-core speedups.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

double
geomeanSpeedup(const std::vector<workloads::WorkloadSpec> &ws,
               const SystemConfig &cfg, const SystemConfig &base_cfg)
{
    std::vector<double> pcts;
    for (const auto &w : ws) {
        const SimResult &b = run(w, base_cfg);
        const SimResult &r = run(w, cfg);
        pcts.push_back(experiment::percentDelta(r.ipc[0], b.ipc[0]));
    }
    return experiment::geomeanSpeedupPct(pcts);
}

} // namespace

int
main()
{
    printBanner("Figure 17 — spending TLP's 7KB differently",
                "Fig. 17 (IPCP/Berti/Hermes enhanced with +7 KB vs TLP, "
                "single-core)");

    auto ws = benchWorkloads();

    for (const char *pf : {"ipcp", "berti"}) {
        SystemConfig big = benchConfig(pf);
        big.l1_pf_params.set("table_scale_shift", 2);
        prewarm(ws, {benchConfig(pf), big,
                     benchConfig(pf, SchemeConfig::fromName("hermes+7kb")),
                     benchConfig(pf, SchemeConfig::fromName("tlp"))});
    }

    for (const char *pf : {"ipcp", "berti"}) {
        SystemConfig base_cfg = benchConfig(pf);

        SystemConfig pf_big = benchConfig(pf);
        pf_big.l1_pf_params.set("table_scale_shift", 2);   // 4x ≈ +7 KB

        SystemConfig hermes_big
            = benchConfig(pf, SchemeConfig::fromName("hermes+7kb"));
        SystemConfig tlp = benchConfig(pf, SchemeConfig::fromName("tlp"));

        TablePrinter tp({"design", "gm speedup"}, 24);
        tp.printHeader(std::string("Figure 17 (" ) + pf
                       + " at L1D): geomean speedup over baseline");
        tp.printRow({std::string(pf) + "+7KB",
                     TablePrinter::fmtPct(
                         geomeanSpeedup(ws, pf_big, base_cfg))});
        tp.printRow({"hermes+7KB",
                     TablePrinter::fmtPct(
                         geomeanSpeedup(ws, hermes_big, base_cfg))});
        tp.printRow({"tlp",
                     TablePrinter::fmtPct(
                         geomeanSpeedup(ws, tlp, base_cfg))});
    }

    std::printf("\npaper shape: extra table capacity alone buys little — "
                "TLP's gains come from the mechanism, not the storage.\n");
    return 0;
}
