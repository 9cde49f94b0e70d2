/**
 * @file
 * Graph-analytics scenario: the workload class that motivates the paper.
 *
 * Runs BFS and PageRank on a Kronecker (power-law) graph under the
 * baseline, Hermes, and TLP, and reports the metrics the paper's intro
 * leads with: DRAM transactions, prefetch accuracy, and speedup. Also
 * shows how to drive the workload layer directly (build your own graph,
 * record your own trace) instead of using the named workload sets.
 */

#include <cstdio>

#include "sim/experiment.hh"
#include "workloads/gap_kernels.hh"
#include "workloads/graph.hh"

using namespace tlpsim;
using namespace tlpsim::workloads;

int
main()
{
    // Build a power-law graph directly (2^14 vertices keeps this example
    // fast; bump the scale to see DRAM pressure grow).
    std::printf("building kron graph (2^14 vertices)...\n");
    Graph graph = makeGraph(GraphKind::Kron, 14, 8, 42);
    std::printf("  %u vertices, %llu directed edges, max degree %llu\n",
                graph.numVertices(),
                static_cast<unsigned long long>(graph.numEdges()),
                static_cast<unsigned long long>(graph.maxDegree()));

    for (GapKernel kernel : {GapKernel::Bfs, GapKernel::Pr}) {
        // Record the kernel into a trace by hand.
        Trace trace(toString(kernel));
        TraceRecorder::Options opt;
        opt.max_instrs = 400'000;
        TraceRecorder rec(trace, opt);
        recordGapKernel(kernel, graph, rec, 7);
        auto s = trace.summarize();
        std::printf("\n== %s: %llu instrs, %llu loads, %.1f MB touched\n",
                    toString(kernel),
                    static_cast<unsigned long long>(s.instrs),
                    static_cast<unsigned long long>(s.loads),
                    s.working_set_mb);

        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.warmup_instrs = 80'000;
        cfg.sim_instrs = 250'000;

        std::printf("  %-10s %8s %10s %8s %9s\n", "scheme", "IPC",
                    "DRAM txns", "pf acc", "speedup");
        double base_ipc = 0.0;
        for (const SchemeConfig &scheme :
             {SchemeConfig::fromName("baseline"),
              SchemeConfig::fromName("hermes"),
              SchemeConfig::fromName("tlp")}) {
            cfg.scheme = scheme;
            Simulator sim(cfg, {std::make_shared<MemoryTraceSource>(trace)});
            SimResult r = sim.run();
            if (scheme.name == "baseline")
                base_ipc = r.ipc[0];
            std::printf("  %-10s %8.3f %10llu %7.1f%% %+8.1f%%\n",
                        scheme.name.c_str(), r.ipc[0],
                        static_cast<unsigned long long>(
                            r.dramTransactions()),
                        r.l1dPrefetchAccuracy() * 100.0,
                        experiment::percentDelta(r.ipc[0], base_ipc));
        }
    }
    return 0;
}
