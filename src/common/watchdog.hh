/**
 * @file
 * Per-thread wall-clock watchdog for long-running design points.
 *
 * The Runner arms the watchdog on the thread about to execute a design
 * point; the Simulator's main loop polls it every 64 Ki cycles (one
 * predictable branch plus, when armed, one steady_clock read — far below
 * measurement noise). When the deadline passes, poll() throws
 * SimTimeoutError, unwinding the simulation cleanly: the Simulator and
 * every component it owns are destroyed, and the Runner turns the
 * exception into a structured failure row instead of letting one
 * pathological point wedge a million-point grid.
 *
 * State is thread_local, so concurrent sweep workers time out
 * independently and an unarmed thread (every bench, every test that
 * never opts in) pays only the `armed` check.
 */

#ifndef TLPSIM_COMMON_WATCHDOG_HH
#define TLPSIM_COMMON_WATCHDOG_HH

#include <stdexcept>

namespace tlpsim
{

/** A design point exceeded its configured wall-clock budget. */
class SimTimeoutError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace watchdog
{

/** Arm the calling thread's watchdog: poll() throws SimTimeoutError once
 *  @p seconds of wall-clock time elapse. seconds <= 0 (or NaN) disarms;
 *  a budget beyond the clock's range never expires. */
void arm(double seconds);

/** Disarm the calling thread's watchdog. */
void disarm();

/** Is the calling thread's watchdog armed? */
bool armed();

/** Throw SimTimeoutError if the calling thread's deadline has passed;
 *  no-op when unarmed. */
void poll();

} // namespace watchdog

} // namespace tlpsim

#endif // TLPSIM_COMMON_WATCHDOG_HH
