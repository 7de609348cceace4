/**
 * @file
 * Detector-gated software ring defense.
 *
 * GatedPolicy wraps any nic::BufferPolicy and forwards its per-packet
 * hooks (onPacket, onRecycle) only while a detect::GateController is
 * armed, so the wrapped defense's cost is paid only when a detector
 * has seen an attacker. The lifecycle hooks (onInit, onTeardown)
 * always forward -- an inner policy that owns resources (the
 * quarantine pool) keeps its invariants whether or not it ever arms.
 *
 * Spec grammar: "ring.gated:<detector>:<inner>", where <detector> is
 * a detect::makeDetector name and <inner> is any other ring policy
 * with the param separator ':' spelled '.' (the spec grammar reserves
 * ':' for the top-level split):
 *
 *     ring.gated:cadence:partial.1000
 *     ring.gated:miss-spike:full
 *     ring.gated:entropy-drop:quarantine.16
 *
 * defense::makeRingPolicy() parses that spec and constructs the
 * GatedPolicy unbound (permanently disarmed). Testbed assembly reads
 * detectorName() off the built policy, builds one
 * detect::DetectionRig per testbed with that gate detector, and binds
 * every queue's instance to the rig's GateController. An unbound
 * instance is therefore exactly the "ring.none" fast path plus one
 * branch per packet.
 */

#ifndef PKTCHASE_DEFENSE_GATED_POLICY_HH
#define PKTCHASE_DEFENSE_GATED_POLICY_HH

#include <memory>
#include <string>

#include "detect/gate.hh"
#include "nic/buffer_policy.hh"

namespace pktchase::defense
{

/** A BufferPolicy armed and disarmed by a detector's alarm stream. */
class GatedPolicy : public nic::BufferPolicy
{
  public:
    /**
     * @param detector Gate detector name (detect::makeDetector).
     * @param inner    The wrapped defense (owned).
     */
    GatedPolicy(std::string detector,
                std::unique_ptr<nic::BufferPolicy> inner);

    std::string name() const override;

    /**
     * Deliberately the conservative all-false default: the armed bit
     * flips mid-run (telemetry published during descriptor processing
     * can arm the gate between two frames), so the driver must
     * dispatch every hook regardless of the inner policy's own traits.
     */
    nic::BufferPolicy::HookTraits
    hookTraits() const override
    {
        return {};
    }

    void onInit(nic::RxQueue &q) override;
    void onPacket(nic::RxQueue &q, std::uint64_t n) override;
    void onRecycle(nic::RxQueue &q, std::size_t i) override;
    void onTeardown(nic::RxQueue &q) override;

    /**
     * Bind the controller whose armed bit gates the inner hooks (not
     * owned; must outlive the policy). Unbound, the policy never
     * arms.
     */
    void bindGate(const detect::GateController *gate) { gate_ = gate; }

    /** Whether the inner defense is currently active. */
    bool armed() const { return gate_ && gate_->armed(); }

    const nic::BufferPolicy &inner() const { return *inner_; }
    const std::string &detectorName() const { return detector_; }

  private:
    std::string detector_;
    std::unique_ptr<nic::BufferPolicy> inner_;
    const detect::GateController *gate_ = nullptr;
};

} // namespace pktchase::defense

#endif // PKTCHASE_DEFENSE_GATED_POLICY_HH
