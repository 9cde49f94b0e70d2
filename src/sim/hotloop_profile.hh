/**
 * @file
 * Per-subsystem cycle attribution for the simulator hot loop.
 *
 * A HotloopProfile attached to a Simulator (Simulator::setProfile) makes
 * step() and skipIdle() bracket each component family's tick with a TSC
 * read and accumulate the deltas per subsystem. The normal path pays one
 * predictable branch per step; the profiled path pays ~2 TSC reads per
 * component per cycle, which perturbs absolute wall time but keeps the
 * *relative* attribution honest — exactly what's needed to direct
 * hot-loop work and to spot a subsystem whose share regresses.
 *
 * Used by perfbench: `--trace 1` attaches one to every design point of
 * its traced round and reports each subsystem's share of host time.
 */

#ifndef TLPSIM_SIM_HOTLOOP_PROFILE_HH
#define TLPSIM_SIM_HOTLOOP_PROFILE_HH

#include <cstdint>
#include <ctime>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace tlpsim
{

/** Timestamp source for profiling: raw TSC on x86, a monotonic clock
 *  elsewhere. Only ratios between samples are ever reported, so the
 *  unit (TSC ticks vs nanoseconds) does not matter. */
inline std::uint64_t
profileTimestamp()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    struct timespec ts;
    // tlpsim:waive(determinism) profiling-only clock read; never taken on
    // the simulation path and never feeds simulated state.
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL
        + static_cast<std::uint64_t>(ts.tv_nsec);
#endif
}

/** Accumulated hot-loop attribution, one bucket per subsystem family. */
struct HotloopProfile
{
    enum Subsystem
    {
        kCore = 0,     ///< Core::tick (retire/issue/fetch/dispatch)
        kL1i,          ///< instruction caches
        kL1d,          ///< data caches
        kL2,           ///< private L2s
        kLlc,          ///< shared LLC
        kDram,         ///< DRAM controller
        kNextEvent,    ///< idle-skip next-event computation
        kNumSubsystems,
    };

    std::uint64_t ticks[kNumSubsystems] = {};   ///< TSC deltas summed

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t v : ticks)
            t += v;
        return t;
    }

    void
    merge(const HotloopProfile &o)
    {
        for (int s = 0; s < kNumSubsystems; ++s)
            ticks[s] += o.ticks[s];
    }
};

} // namespace tlpsim

#endif // TLPSIM_SIM_HOTLOOP_PROFILE_HH
