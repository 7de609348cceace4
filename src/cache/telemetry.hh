/**
 * @file
 * LLC-side telemetry hook interface.
 *
 * The Llc holds a nullable LlcTelemetry pointer and reports three
 * event kinds to it, each with the access timestamp:
 *
 *  - cpuAccess:    every CPU read/write, with its hit/miss outcome
 *                  (the PMU's LLC-references / LLC-misses pair);
 *  - ioInjection:  every DDIO allocation;
 *  - ioLineConflict: a CPU demand fill displaced an I/O line -- the
 *                  signature of PRIME+PROBE priming over the ring
 *                  buffers' eviction sets, the counter the
 *                  ProbeCadence detector autocorrelates.
 *
 * A probe rolls its epoch on every event, so an injection moves the
 * epoch boundary even where the probe counts nothing for it.
 *
 * When the pointer is null (the default) the Llc performs no
 * telemetry work at all: same loads, same RNG draws, same statistics
 * -- the golden-trace tests pin that the off-path cost is zero.
 */

#ifndef PKTCHASE_CACHE_TELEMETRY_HH
#define PKTCHASE_CACHE_TELEMETRY_HH

#include "sim/types.hh"

namespace pktchase::cache
{

/** Observer of LLC counter events; see file comment for the contract. */
class LlcTelemetry
{
  public:
    virtual ~LlcTelemetry() = default;

    /** A CPU access; @p hit is the outcome. */
    virtual void cpuAccess(bool hit, Cycles now) = 0;

    /** A DDIO allocation. */
    virtual void ioInjection(Cycles now) = 0;

    /** A CPU fill displaced an I/O line. */
    virtual void ioLineConflict(Cycles now) = 0;
};

} // namespace pktchase::cache

#endif // PKTCHASE_CACHE_TELEMETRY_HH
