#include "gated_policy.hh"

#include "detect/detector.hh"
#include "sim/logging.hh"

namespace pktchase::defense
{

namespace
{

constexpr const char *kPrefix = "ring.gated:";

/** "ring.partial:1000" -> "partial.1000" (for canonical names). */
std::string
registrySpecToInner(const std::string &spec)
{
    std::string s = spec;
    const std::string prefix = "ring.";
    if (s.rfind(prefix, 0) == 0)
        s = s.substr(prefix.size());
    const std::size_t colon = s.find(':');
    if (colon != std::string::npos)
        s[colon] = '.';
    return s;
}

} // namespace

GatedPolicy::GatedPolicy(std::string detector,
                         std::unique_ptr<nic::BufferPolicy> inner)
    : detector_(std::move(detector)), inner_(std::move(inner))
{
    if (!detect::isDetectorName(detector_)) {
        fatal("GatedPolicy: unknown gate detector \"" + detector_ +
              "\"");
    }
    if (!inner_)
        fatal("GatedPolicy needs an inner ring policy");
}

std::string
GatedPolicy::name() const
{
    return std::string(kPrefix) + detector_ + ":" +
        registrySpecToInner(inner_->name());
}

void
GatedPolicy::onInit(nic::RxQueue &q)
{
    inner_->onInit(q);
}

void
GatedPolicy::onPacket(nic::RxQueue &q, std::uint64_t n)
{
    if (armed())
        inner_->onPacket(q, n);
}

void
GatedPolicy::onRecycle(nic::RxQueue &q, std::size_t i)
{
    if (armed())
        inner_->onRecycle(q, i);
}

void
GatedPolicy::onTeardown(nic::RxQueue &q)
{
    inner_->onTeardown(q);
}

} // namespace pktchase::defense
