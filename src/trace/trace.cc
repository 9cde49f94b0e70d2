#include "trace/trace.hh"

#include <algorithm>
#include <unordered_set>

#include "common/config.hh"

namespace tlpsim
{

void
Trace::pushWide(const TraceInstr &i)
{
    records_.push_back({wide_.size(), 0, kNoReg, kNoReg, kNoReg, kWide});
    wide_.push_back(i);
}

TraceInstr
Trace::at(std::size_t i) const
{
    TraceInstr out;
    decode(i, 1, &out);
    return out;
}

// tlpsim:hot
void
Trace::decode(std::size_t first, std::size_t n, TraceInstr *out) const
{
    // Every field is written in place, with no branch on load versus
    // store: the store flag widens to an all-ones mask that routes the
    // one address to ld_vaddr or st_vaddr and zeroes the other. The
    // packed record is read by value, since the byte-wide stores into
    // out may alias it and would force every flag test to reload.
    const Record *in = records_.data() + first;
    for (std::size_t k = 0; k < n; ++k) {
        const Record r = in[k];
        TraceInstr &o = out[k];
        const Addr store_mask
            = Addr{0} - static_cast<Addr>((r.flags & kStore) != 0);
        o.ip = r.ip;
        o.ld_vaddr = r.addr & ~store_mask;
        o.st_vaddr = r.addr & store_mask;
        o.src0 = r.src0;
        o.src1 = r.src1;
        o.dst = r.dst;
        o.branch = static_cast<BranchKind>(r.flags & kBranchMask);
        o.taken = (r.flags & kTaken) != 0;
        if ((r.flags & kWide) != 0) [[unlikely]]
            o = wide_[r.addr];
    }
}

std::size_t
MemoryTraceSource::read(TraceInstr *out, std::size_t n)
{
    const std::size_t take = std::min(n, trace_->size() - pos_);
    trace_->decode(pos_, take, out);
    pos_ += take;
    if (pos_ == trace_->size())
        pos_ = 0;
    return take;
}
// tlpsim:endhot

Trace::Summary
Trace::summarize() const
{
    Summary s;
    std::unordered_set<Addr> pages;
    for (std::size_t k = 0; k < size(); ++k) {
        const TraceInstr i = at(k);
        ++s.instrs;
        if (i.isLoad()) {
            ++s.loads;
            pages.insert(pageNumber(i.ld_vaddr));
        }
        if (i.isStore()) {
            ++s.stores;
            pages.insert(pageNumber(i.st_vaddr));
        }
        if (i.isBranch()) {
            ++s.branches;
            if (i.taken)
                ++s.taken_branches;
        }
    }
    s.distinct_pages = pages.size();
    s.working_set_mb = static_cast<double>(pages.size()) * kPageSize
        / (1024.0 * 1024.0);
    return s;
}

MemoryTraceSource::MemoryTraceSource(const Trace &trace) : trace_(&trace)
{
    // A ConfigError, not an assert: an empty trace reaches here through
    // user input (a workload recording nothing at tiny scale), and the
    // looping contract (read() always returns >= 1) cannot hold on it.
    if (trace.empty()) {
        throw ConfigError("trace '" + trace.name()
                          + "' is empty: nothing to simulate");
    }
}

TraceReader::TraceReader(TraceSource &source, std::size_t chunk_records)
    : source_(&source),
      buf_(std::max<std::size_t>(1,
                                 std::min<std::size_t>(chunk_records,
                                                       source.size())))
{
}

void
TraceReader::refill()
{
    fill_ = source_->read(buf_.data(), buf_.size());
    pos_ = 0;
    if (fill_ == 0) {
        // Sources promise >= 1 record; a zero fill would spin peek()
        // forever, so surface the broken source by name instead.
        throw ConfigError("trace source '" + source_->name()
                          + "' returned no records");
    }
}

} // namespace tlpsim
