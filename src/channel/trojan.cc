#include "trojan.hh"

#include "sim/logging.hh"

namespace pktchase::channel
{

TrojanSource::TrojanSource(std::vector<unsigned> symbols, Scheme scheme,
                           std::size_t packets_per_symbol,
                           double rate_pps)
    : symbols_(std::move(symbols)), scheme_(scheme),
      packetsPerSymbol_(packets_per_symbol), ratePps_(rate_pps)
{
    if (packetsPerSymbol_ == 0)
        fatal("TrojanSource: packets_per_symbol must be nonzero");
    for (unsigned s : symbols_)
        if (s >= arity(scheme_))
            fatal("TrojanSource: symbol out of range");
}

bool
TrojanSource::next(nic::Frame &frame, Cycles &gap)
{
    if (symbolIndex_ >= symbols_.size())
        return false;

    const unsigned symbol = symbols_[symbolIndex_];
    frame.bytes = frameBytes(scheme_, symbol);
    frame.protocol = nic::Protocol::Unknown; // plain broadcast frames
    frame.flow = kFlow;
    frame.id = nextId_++;

    const double rate = (ratePps_ <= 0.0)
        ? net::maxFrameRate(frame.bytes) : ratePps_;
    gap = secondsToCycles(1.0 / rate);

    if (++packetInBurst_ >= packetsPerSymbol_) {
        packetInBurst_ = 0;
        ++symbolIndex_;
    }
    return true;
}

} // namespace pktchase::channel
