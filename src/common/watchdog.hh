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

#include <atomic>
#include <stdexcept>

namespace tlpsim
{

/** A design point exceeded its configured wall-clock budget. */
class SimTimeoutError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** A design point was cancelled from another thread via a CancelFlag.
 *  Deliberately NOT a SimTimeoutError: the Runner's retry loop treats
 *  timeouts as transient and re-runs the point, but a cancellation must
 *  unwind exactly once and propagate to the caller. */
class SimCancelledError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace watchdog
{

/**
 * A one-shot cross-thread cancellation flag.
 *
 * This is an intended lock-free site: request() is called from a
 * controller thread while the simulation thread polls requested() every
 * 64 Ki cycles. The release store pairs with the acquire load so that
 * everything the controller wrote before request() (e.g. a reason
 * string, updated shared state) is visible to the simulation thread by
 * the time poll() observes the flag and unwinds. Relaxed would be
 * sufficient for the bool itself but would not order those side
 * effects; seq_cst would add nothing this pairing needs.
 */
class CancelFlag
{
  public:
    /** Request cancellation (idempotent, callable from any thread). */
    void request() { flag_.store(true, std::memory_order_release); }

    /** Has cancellation been requested? (callable from any thread) */
    bool requested() const { return flag_.load(std::memory_order_acquire); }

  private:
    std::atomic<bool> flag_{false};
};

/** Arm the calling thread's watchdog: poll() throws SimTimeoutError once
 *  @p seconds of wall-clock time elapse. seconds <= 0 (or NaN) disarms;
 *  a budget beyond the clock's range never expires. */
void arm(double seconds);

/** Disarm the calling thread's watchdog. */
void disarm();

/** Is the calling thread's watchdog armed? */
bool armed();

/** Wall-clock seconds since the calling thread's arm() (0 if unarmed). */
double elapsedSeconds();

/** Bind a cancellation flag to the calling thread: poll() throws
 *  SimCancelledError once flag->requested() becomes true. nullptr
 *  unbinds. The flag must outlive the binding; the caller (the Runner)
 *  unbinds before the flag is destroyed. */
void bindCancel(const CancelFlag *flag);

/** Throw SimTimeoutError if the calling thread's deadline has passed,
 *  or SimCancelledError if a bound CancelFlag was requested; no-op when
 *  unarmed and unbound. */
void poll();

} // namespace watchdog

} // namespace tlpsim

#endif // TLPSIM_COMMON_WATCHDOG_HH
