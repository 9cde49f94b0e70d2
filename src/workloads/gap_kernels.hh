/**
 * @file
 * The six GAP benchmark kernels (Table IV), implemented for real against
 * CSR graphs and recorded into tlpsim traces.
 *
 * Each kernel runs its actual algorithm on host data and records the
 * corresponding instruction stream (offset/neighbor streaming loads,
 * irregular property-array gathers, frontier pushes, data-dependent
 * branches) through TraceRecorder. The recorded access pattern therefore
 * *is* the algorithm's access pattern, at laptop scale.
 *
 * Recording stops when the recorder is full; the returned result structs
 * are complete only if the algorithm finished first (tests use small
 * graphs with generous instruction budgets to validate correctness).
 */

#ifndef TLPSIM_WORKLOADS_GAP_KERNELS_HH
#define TLPSIM_WORKLOADS_GAP_KERNELS_HH

#include <cstdint>
#include <vector>

#include "workloads/graph.hh"
#include "workloads/recorder.hh"

namespace tlpsim::workloads
{

/** Kernels from the GAP benchmark suite. */
enum class GapKernel
{
    Bfs,    ///< breadth-first search (push, frontier)
    Pr,     ///< PageRank (pull)
    Cc,     ///< connected components, Shiloach-Vishkin style
    Bc,     ///< betweenness centrality, Brandes
    Tc,     ///< triangle counting (sorted-list intersection)
    Sssp,   ///< single-source shortest paths, Δ-stepping
};

constexpr GapKernel kAllGapKernels[] = {
    GapKernel::Bfs, GapKernel::Pr, GapKernel::Cc,
    GapKernel::Bc, GapKernel::Tc, GapKernel::Sssp,
};

const char *toString(GapKernel k);

/** Base of @p k's synthetic code: every PC it records lies in
 *  [codeBase(k), codeBase(k) + kKernelCodeBytes). Fixed per kernel,
 *  whatever the enum's order. */
constexpr Addr
codeBase(GapKernel k)
{
    switch (k) {
      case GapKernel::Bfs: return 0x401000;
      case GapKernel::Pr: return 0x402000;
      case GapKernel::Cc: return 0x403000;
      case GapKernel::Bc: return 0x404000;
      case GapKernel::Tc: return 0x405000;
      case GapKernel::Sssp: return 0x406000;
    }
    return 0;
}

/** Table IV traits. */
struct GapKernelTraits
{
    const char *name;
    const char *irreg_elem_size;   ///< size of the irregular property element
    const char *execution_style;
    bool uses_frontier;
};

GapKernelTraits gapKernelTraits(GapKernel k);

constexpr Vertex kNoParent = ~Vertex{0};
constexpr std::uint32_t kInfDist = ~std::uint32_t{0};

struct BfsResult
{
    Vertex source = 0;
    std::uint64_t visited = 0;
    std::vector<Vertex> parent;
};

struct PrResult
{
    unsigned iterations = 0;
    std::vector<float> rank;
};

struct CcResult
{
    std::vector<Vertex> comp;
};

struct BcResult
{
    Vertex source = 0;
    std::vector<float> centrality;
};

struct TcResult
{
    std::uint64_t triangles = 0;
};

struct SsspResult
{
    Vertex source = 0;
    std::vector<std::uint32_t> dist;
};

BfsResult recordBfs(const Graph &g, TraceRecorder &rec, std::uint64_t seed);
PrResult recordPr(const Graph &g, TraceRecorder &rec, std::uint64_t seed,
                  unsigned max_iters = 8);
CcResult recordCc(const Graph &g, TraceRecorder &rec, std::uint64_t seed);
BcResult recordBc(const Graph &g, TraceRecorder &rec, std::uint64_t seed);
TcResult recordTc(const Graph &g, TraceRecorder &rec, std::uint64_t seed);
SsspResult recordSssp(const Graph &g, TraceRecorder &rec, std::uint64_t seed,
                      std::uint32_t delta = 8);

/** Dispatch by kernel id (used by the workload registry). */
void recordGapKernel(GapKernel k, const Graph &g, TraceRecorder &rec,
                     std::uint64_t seed);

} // namespace tlpsim::workloads

#endif // TLPSIM_WORKLOADS_GAP_KERNELS_HH
