/**
 * @file
 * Shared diagnostic channel for operational events (store quarantines,
 * watchdog timeouts, resume summaries): every line is rendered
 * "tlpsim: <topic>: <message>" on stderr, so tests and operators can
 * match on a stable prefix instead of ad-hoc fprintf wording scattered
 * across subsystems. Lines are emitted atomically (one mutex-guarded
 * write), so concurrent sweep workers never interleave mid-line.
 *
 * This channel is for *events*; per-simulation progress logging
 * (runner.cc's "[sim ...]" lines) stays on its own informal format.
 */

#ifndef TLPSIM_COMMON_DIAG_HH
#define TLPSIM_COMMON_DIAG_HH

#include <string>

namespace tlpsim
{

/** Emit "tlpsim: <topic>: <message>\n" on stderr, atomically. */
void diag(const std::string &topic, const std::string &message);

} // namespace tlpsim

#endif // TLPSIM_COMMON_DIAG_HH
