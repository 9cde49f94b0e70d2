#include "trace/trace.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "common/config.hh"

namespace tlpsim
{

Trace::Summary
Trace::summarize() const
{
    Summary s;
    std::unordered_set<Addr> pages;
    for (const auto &i : instrs_) {
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

std::size_t
MemoryTraceSource::read(TraceInstr *out, std::size_t n)
{
    const std::size_t take = std::min(n, trace_->size() - pos_);
    std::memcpy(out, trace_->data() + pos_, take * sizeof(TraceInstr));
    pos_ += take;
    if (pos_ == trace_->size())
        pos_ = 0;
    return take;
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
