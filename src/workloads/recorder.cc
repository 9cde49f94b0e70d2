#include "workloads/recorder.hh"

namespace tlpsim::workloads
{

namespace
{

/**
 * ASLR-stable anchor inside this binary's text segment. PIE relocates
 * the whole segment by one slide, so call-site addresses normalized
 * against the anchor are identical from run to run — without this,
 * recorded PCs (and every PC-hashed predictor feature downstream) would
 * differ between processes and figures would not reproduce exactly.
 *
 * Layout hazard: a recorded PC is the byte offset between a kernel call
 * site and this function, so it moves whenever the machine code linked
 * between them changes size. That code is gap_kernels.cc,
 * spec_kernels.cc and this file; the inline code they expand
 * (common/rng.hh, Trace::push, the Graph accessors in graph.hh,
 * TraceRecorder's data members and the inline methods the kernels call);
 * and graph.cc wherever the link puts it between the GAP kernels and
 * this file, which is every binary but perfbench. An edit there re-rolls
 * the figures even when it touches only set-up: a lazy sort in recordTc
 * changed perfbench's sc_sweep seed-1 stats digest from 2aa647af629faa78
 * to 1cf7c47db25e3d94, TLP's IPC ratio from 115.596 to 115.809 % and
 * its DRAM ratio from 83.947 to 83.631 %. A change that edits this code
 * must say that it moves the figures, and by how much.
 */
Addr
anchorPc()
{
    static const Addr anchor = reinterpret_cast<Addr>(&anchorPc);
    return anchor;
}

/** Synthetic text base recorded PCs are rebased onto. */
constexpr Addr kTraceCodeBase = 0x400000;

/** PC of the caller's call site (stable per static call site and run). */
inline Addr
callerPc()
{
    Addr pc = reinterpret_cast<Addr>(
        __builtin_extract_return_addr(__builtin_return_address(0)));
    return kTraceCodeBase + (pc - anchorPc());
}

} // namespace

Addr
TraceRecorder::alloc(std::uint64_t bytes)
{
    Addr base = brk_;
    // Round the region up to a page and leave one guard page between
    // regions so distinct arrays never share a page (keeps first-access
    // features meaningful).
    std::uint64_t sz = (bytes + kPageMask) & ~kPageMask;
    brk_ += sz + kPageSize;
    return base;
}

RegId
TraceRecorder::load(Addr vaddr, RegId a, RegId b)
{
    return loadAt(callerPc(), vaddr, a, b);
}

void
TraceRecorder::store(Addr vaddr, RegId a, RegId b)
{
    storeAt(callerPc(), vaddr, a, b);
}

RegId
TraceRecorder::alu(RegId a, RegId b)
{
    return aluAt(callerPc(), a, b);
}

void
TraceRecorder::branch(bool taken, RegId a)
{
    branchAt(callerPc(), taken, a);
}

void
TraceRecorder::jump()
{
    if (full())
        return;
    TraceInstr i;
    i.ip = callerPc();
    i.branch = BranchKind::Direct;
    i.taken = true;
    trace_->push(i);
}

RegId
TraceRecorder::loadAt(Addr ip, Addr vaddr, RegId a, RegId b)
{
    if (full())
        return allocReg();
    TraceInstr i;
    i.ip = ip;
    i.ld_vaddr = vaddr;
    i.src0 = a;
    i.src1 = b;
    i.dst = allocReg();
    trace_->push(i);
    return i.dst;
}

void
TraceRecorder::storeAt(Addr ip, Addr vaddr, RegId a, RegId b)
{
    if (full())
        return;
    TraceInstr i;
    i.ip = ip;
    i.st_vaddr = vaddr;
    i.src0 = a;
    i.src1 = b;
    trace_->push(i);
}

RegId
TraceRecorder::aluAt(Addr ip, RegId a, RegId b)
{
    if (full())
        return allocReg();
    TraceInstr i;
    i.ip = ip;
    i.src0 = a;
    i.src1 = b;
    i.dst = allocReg();
    trace_->push(i);
    return i.dst;
}

void
TraceRecorder::branchAt(Addr ip, bool taken, RegId a)
{
    if (full())
        return;
    TraceInstr i;
    i.ip = ip;
    i.branch = BranchKind::Conditional;
    i.taken = taken;
    i.src0 = a;
    trace_->push(i);
}

} // namespace tlpsim::workloads
