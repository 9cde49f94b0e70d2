/**
 * @file
 * In-memory span log for the benchmark's traced rounds.
 *
 * A span brackets one call into a tlpsim layer (graph generation, trace
 * recording, Simulator construction and run, store save/load) or one of
 * the benchmark's own phases. Each span records its parent, and the
 * spans of one design point share that point's id. Spans stay in memory
 * while the round runs and are written out once at the end, so tracing
 * adds a clock read and a short locked append per span and nothing else.
 * With tracing off, open() returns 0 and records nothing.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p origin to now. */
double secondsSince(Clock::time_point origin);

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0;   ///< 0 = root
    std::int64_t point = -1;    ///< design-point index, -1 = none
    std::string name;           ///< "<layer>.<what>", e.g. "sim.run"
    double start_s = 0.0;       ///< since the log's origin
    double end_s = 0.0;
};

class SpanLog
{
  public:
    SpanLog(bool enabled, Clock::time_point origin);

    /** Open a span; returns its id (0 when tracing is off). */
    std::uint32_t open(const std::string &name, std::uint32_t parent,
                       std::int64_t point = -1);
    void close(std::uint32_t id);

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const std::string &name, std::uint32_t parent,
              std::int64_t point = -1)
            : log_(log), id_(log.open(name, parent, point))
        {}
        ~Scope() { log_.close(id_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        std::uint32_t id() const { return id_; }

      private:
        SpanLog &log_;
        std::uint32_t id_;
    };

    /** Copy of every recorded span (call once the round is over). */
    std::vector<Span> spans() const;

    /**
     * Self time summed per layer: a span's duration minus the part of its
     * interval covered by its children, added to the layer named by the
     * span's prefix ("sim.run" -> "sim").
     */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** One JSON object per line; throws std::runtime_error on I/O error. */
    void write(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex m_;   ///< guards spans_
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
