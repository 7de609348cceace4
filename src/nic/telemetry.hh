/**
 * @file
 * NIC-side telemetry hook interface.
 *
 * The IgbDriver holds a nullable RxTelemetry pointer and reports one
 * event per received frame: the recycle of the descriptor that was
 * filled, tagged with the receive queue, after the queue's
 * BufferPolicy hooks ran. From this one stream a probe derives the
 * cross-queue recycle distribution the entropy-drop detector scores.
 *
 * When the pointer is null (the default) the receive path does no
 * telemetry work; the golden-trace tests pin that the off-path cost
 * is zero.
 */

#ifndef PKTCHASE_NIC_TELEMETRY_HH
#define PKTCHASE_NIC_TELEMETRY_HH

#include <cstddef>

#include "sim/types.hh"

namespace pktchase::nic
{

/** Observer of receive-path recycle events. */
class RxTelemetry
{
  public:
    virtual ~RxTelemetry() = default;

    /**
     * Queue @p queue recycled a descriptor; @p now is the cycle the
     * driver finished processing the frame.
     */
    virtual void onRecycle(std::size_t queue, Cycles now) = 0;
};

} // namespace pktchase::nic

#endif // PKTCHASE_NIC_TELEMETRY_HH
