/**
 * @file
 * Quickstart: build a workload trace, simulate the Table III baseline and
 * TLP on a single core, and print the headline metrics (IPC, MPKI, DRAM
 * transactions, prefetch accuracy).
 *
 * This is the 60-second tour of the public API:
 *   1. pick a workload        (tlpsim::workloads)
 *   2. pick a configuration   (tlpsim::SystemConfig / SchemeConfig)
 *   3. run                    (tlpsim::experiment::runSingleCore)
 *   4. read the results       (tlpsim::SimResult)
 */

#include <cstdio>

#include "sim/experiment.hh"

using namespace tlpsim;

int
main()
{
    // 1. Workloads: use the tiny set so the example finishes in seconds.
    auto specs = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    const auto &workload = specs.front();   // bfs on a Kronecker graph
    std::printf("workload: %s (%s suite)\n", workload.name.c_str(),
                toString(workload.suite));

    // 2. Configuration: Cascade Lake-like single core with IPCP at L1D.
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.warmup_instrs = 50'000;
    cfg.sim_instrs = 200'000;
    cfg.l1_prefetcher = "ipcp";   // registry name (see prefetcherRegistry())

    // 3/4. Run baseline vs TLP and compare.
    cfg.scheme = SchemeConfig::fromName("baseline");
    SimResult base = experiment::runSingleCore(workload, cfg);

    cfg.scheme = SchemeConfig::fromName("tlp");
    SimResult tlp = experiment::runSingleCore(workload, cfg);

    std::printf("\n%-28s %12s %12s\n", "metric", "baseline", "tlp");
    std::printf("%-28s %12.3f %12.3f\n", "IPC", base.ipc[0], tlp.ipc[0]);
    std::printf("%-28s %12.1f %12.1f\n", "L1D MPKI", base.mpki("l1d"),
                tlp.mpki("l1d"));
    std::printf("%-28s %12.1f %12.1f\n", "L2C MPKI", base.mpki("l2c"),
                tlp.mpki("l2c"));
    std::printf("%-28s %12.1f %12.1f\n", "LLC MPKI", base.mpki("llc"),
                tlp.mpki("llc"));
    std::printf("%-28s %12llu %12llu\n", "DRAM transactions",
                static_cast<unsigned long long>(base.dramTransactions()),
                static_cast<unsigned long long>(tlp.dramTransactions()));
    std::printf("%-28s %11.1f%% %11.1f%%\n", "L1D prefetch accuracy",
                base.l1dPrefetchAccuracy() * 100.0,
                tlp.l1dPrefetchAccuracy() * 100.0);
    std::printf("%-28s %12s %11.1f%%\n", "speedup", "-",
                experiment::percentDelta(tlp.ipc[0], base.ipc[0]));
    return 0;
}
