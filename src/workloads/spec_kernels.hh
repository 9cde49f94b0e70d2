/**
 * @file
 * SPEC-CPU-like synthetic kernels.
 *
 * The paper evaluates 24 SPEC CPU 2006/2017 traces with LLC MPKI > 1. The
 * proprietary binaries/SimPoints are not redistributable, so this module
 * provides eight kernels whose *memory behaviour classes* span the same
 * space the memory-bound SPEC subset occupies: dependent pointer chasing,
 * regular stencils/streams (highly prefetchable), hash probing, heap
 * management, table lookups, sparse algebra, and branchy mixed loops.
 * Predictors only ever observe {PC, address, history, outcome}, which these
 * kernels generate from the genuine algorithms.
 */

#ifndef TLPSIM_WORKLOADS_SPEC_KERNELS_HH
#define TLPSIM_WORKLOADS_SPEC_KERNELS_HH

#include <cstdint>

#include "workloads/recorder.hh"

namespace tlpsim::workloads
{

/** SPEC-like kernel identifiers; names hint the SPEC member they mimic. */
enum class SpecKernel
{
    McfPchase,      ///< dependent pointer chase over a random cycle (mcf)
    LbmStencil,     ///< 3-D 7-point stencil over two grids (lbm/cactus)
    LibqStream,     ///< unit-stride read-modify-write streams (libquantum)
    OmnetppHeap,    ///< binary-heap event queue + payload gathers (omnetpp)
    XalanHash,      ///< open-addressing hash probes (xalancbmk)
    GccMixed,       ///< branchy mixed-locality walks (gcc)
    DeepsjengTt,    ///< transposition-table probes (deepsjeng)
    RomsSpmv,       ///< CSR sparse mat-vec (roms/fotonik-like gathers)
};

constexpr SpecKernel kAllSpecKernels[] = {
    SpecKernel::McfPchase, SpecKernel::LbmStencil, SpecKernel::LibqStream,
    SpecKernel::OmnetppHeap, SpecKernel::XalanHash, SpecKernel::GccMixed,
    SpecKernel::DeepsjengTt, SpecKernel::RomsSpmv,
};

const char *toString(SpecKernel k);

/** Base of @p k's synthetic code: every PC it records lies in
 *  [codeBase(k), codeBase(k) + kKernelCodeBytes). Fixed per kernel,
 *  whatever the enum's order. */
constexpr Addr
codeBase(SpecKernel k)
{
    switch (k) {
      case SpecKernel::McfPchase: return 0x411000;
      case SpecKernel::LbmStencil: return 0x412000;
      case SpecKernel::LibqStream: return 0x413000;
      case SpecKernel::OmnetppHeap: return 0x414000;
      case SpecKernel::XalanHash: return 0x415000;
      case SpecKernel::GccMixed: return 0x416000;
      case SpecKernel::DeepsjengTt: return 0x417000;
      case SpecKernel::RomsSpmv: return 0x418000;
    }
    return 0;
}

/**
 * Record @p k until the recorder is full.
 *
 * @param ws_shift  log2 scaling of the kernel's working set; 0 = full-size
 *                  (tens of MB, well beyond the LLC), each +1 halves it.
 */
void recordSpecKernel(SpecKernel k, TraceRecorder &rec, std::uint64_t seed,
                      unsigned ws_shift = 0);

} // namespace tlpsim::workloads

#endif // TLPSIM_WORKLOADS_SPEC_KERNELS_HH
