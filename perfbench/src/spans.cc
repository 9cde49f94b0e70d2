#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench
{

double
secondsSince(Clock::time_point origin)
{
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

SpanLog::SpanLog(bool enabled, Clock::time_point origin)
    : enabled_(enabled), origin_(origin)
{}

std::uint32_t
SpanLog::open(const std::string &name, std::uint32_t parent,
              std::int64_t point)
{
    if (!enabled_)
        return 0;
    const double start = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(m_);
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.point = point;
    s.name = name;
    s.start_s = start;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
SpanLog::close(std::uint32_t id)
{
    if (!enabled_ || id == 0)
        return;
    const double end = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(m_);
    spans_[id - 1].end_s = end;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(m_);
    return spans_;
}

std::map<std::string, double>
SpanLog::selfSecondsByLayer() const
{
    const std::vector<Span> all = spans();
    std::vector<std::vector<std::pair<double, double>>> children(all.size()
                                                                 + 1);
    for (const Span &s : all)
        children[s.parent].emplace_back(s.start_s, s.end_s);

    std::map<std::string, double> self;
    for (const Span &s : all) {
        // Union of the children's intervals, clipped to the span: parallel
        // children (two Runner workers under one phase) count once.
        auto &kids = children[s.id];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double cur_lo = 0.0;
        double cur_hi = -1.0;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, s.start_s);
            hi = std::min(hi, s.end_s);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        const std::string layer = s.name.substr(0, s.name.find('.'));
        self[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
    }
    return self;
}

void
SpanLog::write(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write spans to " + path);
    for (const Span &s : spans()) {
        std::fprintf(f,
                     "{\"id\": %u, \"parent\": %u, \"point\": %lld, "
                     "\"name\": \"%s\", \"start_s\": %.6f, "
                     "\"end_s\": %.6f}\n",
                     s.id, s.parent, static_cast<long long>(s.point),
                     s.name.c_str(), s.start_s, s.end_s);
    }
    if (std::fclose(f) != 0)
        throw std::runtime_error("cannot write spans to " + path);
}

} // namespace perfbench
