/**
 * @file
 * The covert-channel trojan: a remote process that only sends ordinary
 * broadcast frames (Sec. IV threat model). It transmits symbol S by
 * sending a burst of packets_per_symbol frames whose size encodes S;
 * with no sequence information the burst must cover the whole ring
 * (256 packets) so the spy's single monitored buffer is guaranteed to
 * receive one of them; with sequence information bursts shrink to
 * ring/n and the spy watches n buffers (Fig. 12a/b).
 */

#ifndef PKTCHASE_CHANNEL_TROJAN_HH
#define PKTCHASE_CHANNEL_TROJAN_HH

#include <cstdint>
#include <vector>

#include "channel/encoding.hh"
#include "net/traffic.hh"
#include "nic/frame.hh"

namespace pktchase::channel
{

/**
 * TrafficSource emitting the symbol stream as size-modulated bursts.
 */
class TrojanSource : public net::TrafficSource
{
  public:
    /**
     * @param symbols            Symbols to transmit, in order.
     * @param scheme             Alphabet / size mapping.
     * @param packets_per_symbol Burst length (ring / monitored bufs).
     * @param rate_pps           Send rate; 0 = line rate.
     */
    TrojanSource(std::vector<unsigned> symbols, Scheme scheme,
                 std::size_t packets_per_symbol, double rate_pps = 0.0);

    /** Flow id of every trojan frame: one connection, so RSS steers
     *  the whole transmission to one receive queue. */
    static constexpr std::uint32_t kFlow = 0;

    bool next(nic::Frame &frame, Cycles &gap) override;

    /** Symbols fully transmitted so far. */
    std::size_t symbolsSent() const { return symbolIndex_; }

  private:
    std::vector<unsigned> symbols_;
    Scheme scheme_;
    std::size_t packetsPerSymbol_;
    double ratePps_;
    std::size_t symbolIndex_ = 0;
    std::size_t packetInBurst_ = 0;
    std::uint64_t nextId_ = 0;
};

} // namespace pktchase::channel

#endif // PKTCHASE_CHANNEL_TROJAN_HH
