#include "workloads/recorder.hh"

namespace tlpsim::workloads
{

/*
 * Site PCs. Each kernel owns kKernelCodeBytes of synthetic code at its
 * codeBase(), and each recorder call in it passes that base plus a
 * literal offset. The offsets were assigned once, in source order, 4
 * bytes apart: one fixed-width instruction per recorded site, so no two
 * sites share a 4-byte PC granule. A new site takes an unused offset in
 * its kernel's range; an existing site is never renumbered, and no
 * offset is chosen to move a result. A recorded PC therefore depends on
 * its call site alone, not on the compiler, the build type, link order,
 * inlining, or an edit anywhere else.
 */

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
TraceRecorder::load(Addr ip, Addr vaddr, RegId a, RegId b)
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
TraceRecorder::store(Addr ip, Addr vaddr, RegId a, RegId b)
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
TraceRecorder::alu(Addr ip, RegId a, RegId b)
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
TraceRecorder::branch(Addr ip, bool taken, RegId a)
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

void
TraceRecorder::jump(Addr ip)
{
    if (full())
        return;
    TraceInstr i;
    i.ip = ip;
    i.branch = BranchKind::Direct;
    i.taken = true;
    trace_->push(i);
}

} // namespace tlpsim::workloads
