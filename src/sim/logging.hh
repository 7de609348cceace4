/**
 * @file
 * Minimal gem5-style status and error reporting helpers.
 *
 * panic() is for internal invariant violations (simulator bugs); fatal()
 * is for user/configuration errors that make continuing impossible;
 * warn() reports a condition without stopping the simulation.
 */

#ifndef PKTCHASE_SIM_LOGGING_HH
#define PKTCHASE_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace pktchase
{

/**
 * Report an unrecoverable internal error and abort.
 * Call only for conditions that indicate a simulator bug.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Report an unrecoverable user/configuration error on one stderr line
 * ("fatal: <msg>", control bytes escaped as \xHH) and exit(1).
 */
[[noreturn]] void fatal(const std::string &msg);

/** Report a suspicious but survivable condition. */
void warn(const std::string &msg);

} // namespace pktchase

#endif // PKTCHASE_SIM_LOGGING_HH
