/**
 * @file
 * Trace recorder: the bridge between real kernel code and tlpsim traces.
 *
 * Workload kernels (GAP graph algorithms, SPEC-like loops) execute their
 * real algorithm on host data structures and, as they run, record the
 * corresponding instruction stream through this API. Each recorder call
 * emits exactly one TraceInstr. Program counters are taken from the
 * caller's return address, so every *static* call site in a kernel gets a
 * stable, distinct PC — exactly the property PC-indexed predictors
 * (perceptron features, IPCP, Berti, SPP) rely on.
 *
 * Register dependencies are explicit: load() returns the destination
 * register holding the loaded value and kernels thread those registers into
 * dependent operations, so pointer chases serialize in the out-of-order
 * core just like the real program would.
 */

#ifndef TLPSIM_WORKLOADS_RECORDER_HH
#define TLPSIM_WORKLOADS_RECORDER_HH

#include <algorithm>
#include <cstdint>

#include "trace/trace.hh"

namespace tlpsim::workloads
{

/** A virtual-address view of a host array mirrored into trace space. */
struct VArray
{
    Addr base = 0;
    unsigned elem_size = 0;

    Addr
    at(std::uint64_t index) const
    {
        return base + index * elem_size;
    }
};

/**
 * Records one instruction per call into a Trace.
 *
 * The recorder owns a bump allocator for the synthetic virtual heap so
 * each workload's data regions are disjoint and page-aligned.
 */
class TraceRecorder
{
  public:
    struct Options
    {
        std::uint64_t max_instrs = 1'000'000;
        Addr heap_base = Addr{1} << 32;   ///< 4 GiB: clear of code addresses
    };

    TraceRecorder(Trace &out, const Options &opt)
        : trace_(&out), max_instrs_(opt.max_instrs), brk_(opt.heap_base)
    {
        // Reserve at most 2^24 records (512 MiB): a kernel may end long
        // before max_instrs, and a longer trace still grows on demand.
        trace_->reserve(std::min<std::uint64_t>(opt.max_instrs,
                                                std::uint64_t{1} << 24));
    }

    /** True once max_instrs records have been emitted; kernels must stop. */
    bool full() const { return trace_->size() >= max_instrs_; }

    std::uint64_t instrCount() const { return trace_->size(); }

    /** Reserve @p bytes of synthetic virtual address space (page aligned). */
    Addr alloc(std::uint64_t bytes);

    /** Reserve an array of @p count elements of @p elem_size bytes. */
    VArray
    allocArray(std::uint64_t count, unsigned elem_size)
    {
        return VArray{alloc(count * elem_size), elem_size};
    }

    /**
     * Emit a load from @p vaddr whose address depends on registers
     * @p a / @p b. Returns the register the value lands in.
     */
    [[gnu::noinline]] RegId load(Addr vaddr, RegId a = kNoReg,
                                 RegId b = kNoReg);

    /** Emit a store to @p vaddr with data/address dependencies. */
    [[gnu::noinline]] void store(Addr vaddr, RegId a = kNoReg,
                                 RegId b = kNoReg);

    /** Emit a 1-cycle ALU op consuming a/b, producing a new register. */
    [[gnu::noinline]] RegId alu(RegId a = kNoReg, RegId b = kNoReg);

    /** Emit a conditional branch with the given outcome. */
    [[gnu::noinline]] void branch(bool taken, RegId a = kNoReg);

    /** Emit an unconditional direct branch (loop back-edges, calls). */
    [[gnu::noinline]] void jump();

    /** Emit @p n independent filler ALU ops (same PC site). */
    void
    ops(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            alu();
    }

    /**
     * Explicit-PC variants, used by unit tests and microbenchmarks where
     * a synthetic, build-independent PC is required.
     */
    RegId loadAt(Addr ip, Addr vaddr, RegId a = kNoReg, RegId b = kNoReg);
    void storeAt(Addr ip, Addr vaddr, RegId a = kNoReg, RegId b = kNoReg);
    RegId aluAt(Addr ip, RegId a = kNoReg, RegId b = kNoReg);
    void branchAt(Addr ip, bool taken, RegId a = kNoReg);

  private:
    /** Rotate through architectural registers 1..kNumRegs-1. */
    RegId
    allocReg()
    {
        RegId r = next_reg_;
        next_reg_ = (next_reg_ % (kNumRegs - 1)) + 1;
        return r;
    }

    Trace *trace_;
    std::uint64_t max_instrs_;
    Addr brk_;
    RegId next_reg_ = 1;
};

} // namespace tlpsim::workloads

#endif // TLPSIM_WORKLOADS_RECORDER_HH
