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
    Clock::time_point start;
    Clock::time_point deadline;
    const CancelFlag *cancel = nullptr;
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
    g_wd.start = Clock::now();
    // A budget past the clock's range never expires; converting it to
    // Clock::duration would overflow.
    const std::chrono::duration<double> left = Clock::time_point::max()
        - g_wd.start;
    g_wd.deadline = seconds >= left.count()
        ? Clock::time_point::max()
        : g_wd.start + std::chrono::duration_cast<Clock::duration>(
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

double
elapsedSeconds()
{
    if (!g_wd.armed)
        return 0.0;
    return std::chrono::duration<double>(Clock::now() - g_wd.start).count();
}

void
bindCancel(const CancelFlag *flag)
{
    g_wd.cancel = flag;
}

void
poll()
{
    // Cancellation outranks the deadline: a cancelled point must not be
    // retried, and SimTimeoutError would route it into the retry loop.
    if (g_wd.cancel != nullptr && g_wd.cancel->requested()) {
        g_wd.cancel = nullptr;
        g_wd.armed = false;
        throw SimCancelledError("design point cancelled");
    }
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
