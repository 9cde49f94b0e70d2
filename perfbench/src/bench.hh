/**
 * @file
 * Types shared by the benchmark's translation units: the design points a
 * workload runs and what each point's job records about its execution.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/hotloop_profile.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/trace.hh"

namespace perfbench
{

/** Named metric values in the order they are printed. */
using Metrics = std::vector<std::pair<std::string, double>>;

/** One design point: one operation of the benchmark. */
struct Point
{
    std::string key;         ///< Runner job key and store row key
    std::string label;       ///< "<workload or mix>|<scheme>"
    std::vector<int> slots;  ///< workload index per core
    tlpsim::SystemConfig cfg;
};

/** What the job and the checks learned about one point. Each job writes
 *  only its own record; the main thread reads them after the phase. */
struct PointRecord
{
    std::string error;            ///< empty = the point passed its checks
    tlpsim::SimResult result;
    double submit_s = 0.0;        ///< since process start
    double start_s = 0.0;
    double end_s = 0.0;
    double construct_s = 0.0;     ///< Simulator constructor
    double run_s = 0.0;           ///< Simulator::run()
    double save_s = 0.0;          ///< ResultStore::save
    double load_s = 0.0;          ///< ResultStore::load (read-back check)
    std::uintmax_t row_bytes = 0;
    std::uint32_t worker = 0;     ///< small per-round thread index
    std::uint64_t cycles = 0;     ///< Simulator::cycle() after run()
    std::uint64_t skipped = 0;    ///< Simulator::idleSkippedCycles()
    std::uint64_t retired = 0;    ///< sum of core(i).retired()
    std::uint64_t nominal = 0;    ///< cores x (warmup + sim) instructions
    tlpsim::HotloopProfile profile;
};

/** Deterministic per-point counts read from SimResult.stats, summed over
 *  every point that passed its checks. */
Metrics countMetrics(const std::vector<const tlpsim::SimResult *> &results);

/**
 * Host cost of each predictor, filter, prefetcher, the TLB stack and the
 * branch predictor, called in isolation through their public interfaces
 * on the loads and branches of @p traces (the workload's own recordings).
 * Returns ns per call, by metric name.
 */
Metrics componentCosts(const std::vector<const tlpsim::Trace *> &traces);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
