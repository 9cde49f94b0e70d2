#include "common/watchdog.hh"

#include <chrono>
#include <cstdio>

namespace tlpsim::watchdog
{

namespace
{

// tlpsim:waive(determinism) the watchdog measures real wall-clock time
// by design; expiry produces a structured failure row, never a silently
// different simulation result
using Clock = std::chrono::steady_clock;

struct ThreadWatchdog
{
    bool armed = false;
    double budget_s = 0.0;
    Clock::time_point deadline;
};

thread_local ThreadWatchdog g_wd;

} // namespace

void
arm(double seconds)
{
    if (!(seconds > 0.0)) {
        disarm();
        return;
    }
    g_wd.armed = true;
    g_wd.budget_s = seconds;
    const Clock::time_point start = Clock::now();
    // A budget past the clock's range never expires; converting it to
    // Clock::duration would overflow.
    const std::chrono::duration<double> left = Clock::time_point::max()
        - start;
    g_wd.deadline = seconds >= left.count()
        ? Clock::time_point::max()
        : start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

void
disarm()
{
    g_wd.armed = false;
}

bool
armed()
{
    return g_wd.armed;
}

void
poll()
{
    if (!g_wd.armed || Clock::now() < g_wd.deadline)
        return;
    char msg[96];
    std::snprintf(msg, sizeof(msg),
                  "design point exceeded its %.3gs wall-clock budget",
                  g_wd.budget_s);
    // Disarm before throwing: the handler (the Runner's retry loop) must
    // not trip over a stale deadline while deciding what to do next.
    g_wd.armed = false;
    throw SimTimeoutError(msg);
}

} // namespace tlpsim::watchdog
