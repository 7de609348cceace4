#include "testbed.hh"

#include <algorithm>

#include "defense/gated_policy.hh"
#include "defense/registry.hh"
#include "sim/logging.hh"

namespace pktchase::testbed
{

namespace
{

std::unique_ptr<cache::SliceHash>
hashForGeometry(const cache::Geometry &geom)
{
    switch (geom.slices) {
      case 8:
        return cache::XorFoldSliceHash::sandyBridgeEP8();
      case 4:
        return cache::XorFoldSliceHash::fourSlice();
      case 2:
        return cache::XorFoldSliceHash::twoSlice();
      case 1:
        return std::make_unique<cache::IdentitySliceHash>(1, 0);
      default:
        fatal("Testbed: no slice hash for this slice count");
    }
}

} // namespace

TestbedConfig
TestbedConfig::reduced()
{
    TestbedConfig cfg;
    cfg.llc.geom = cache::Geometry{2, 512, 8};
    cfg.llc.ioLinesMax = 3;
    cfg.igb.ringSize = 32;
    cfg.builder.poolPages = 768;
    cfg.physBytes = Addr(32) << 20;
    return cfg;
}

Testbed::Testbed(const TestbedConfig &cfg)
    : cfg_(cfg)
{
    if (!cfg_.nicSpec.empty())
        cfg_.igb.queues = defense::nicQueues(cfg_.nicSpec);
    phys_ = std::make_unique<mem::PhysMem>(cfg_.physBytes,
                                           Rng(cfg_.seed));
    hier_ = std::make_unique<cache::Hierarchy>(
        cfg_.llc, cfg_.hier, hashForGeometry(cfg_.llc.geom),
        defense::makeCachePolicy(cfg_.cacheDefense));
    // One BufferPolicy instance per receive queue: defenses carry
    // queue-local state (quarantine pools, offset streams).
    std::vector<std::unique_ptr<nic::BufferPolicy>> policies;
    std::vector<defense::GatedPolicy *> gated;
    policies.reserve(cfg_.igb.queues);
    for (std::size_t q = 0; q < cfg_.igb.queues; ++q) {
        policies.push_back(defense::makeRingPolicy(cfg_.ringDefense));
        if (auto *gp =
                dynamic_cast<defense::GatedPolicy *>(policies.back().get()))
            gated.push_back(gp);
    }
    driver_ = std::make_unique<nic::IgbDriver>(
        cfg_.igb, *phys_, *hier_, std::move(policies));
    spySpace_ = std::make_unique<mem::AddressSpace>(
        *phys_, mem::Owner::Attacker);
    builder_ = std::make_unique<attack::EvictionSetBuilder>(
        *hier_, *spySpace_, cfg_.builder);

    // A gated ring defense needs the telemetry + detector stack it
    // arms from: build the rig on the policy's gate detector and bind
    // every queue's policy to its gate. Non-gated configurations
    // attach nothing -- the telemetry path stays entirely off.
    if (!gated.empty()) {
        detect::RigConfig rig_cfg;
        rig_cfg.gateDetector = gated.front()->detectorName();
        rig_ = std::make_unique<detect::DetectionRig>(*hier_, *driver_,
                                                      rig_cfg);
        for (defense::GatedPolicy *gp : gated)
            gp->bindGate(rig_->gate());
    }
}

detect::DetectionRig &
Testbed::attachDetection(const detect::RigConfig &cfg)
{
    if (rig_) {
        fatal("Testbed::attachDetection: a detection rig is already "
              "attached (gated ring defenses attach one at assembly)");
    }
    rig_ = std::make_unique<detect::DetectionRig>(*hier_, *driver_, cfg);
    return *rig_;
}

const attack::ComboGroups &
Testbed::groups()
{
    if (!groups_) {
        groups_ = std::make_unique<attack::ComboGroups>(
            builder_->buildWithOracle());
    }
    return *groups_;
}

std::size_t
Testbed::comboOf(Addr page_base) const
{
    const auto &geom = cfg_.llc.geom;
    const unsigned slice = hier_->llc().sliceHash().slice(page_base);
    const unsigned set = geom.setIndex(page_base);
    return static_cast<std::size_t>(slice) *
        geom.pageAlignedSetsPerSlice() + set / blocksPerPage;
}

std::vector<std::size_t>
Testbed::comboGsets() const
{
    const auto &geom = cfg_.llc.geom;
    std::vector<std::size_t> out;
    out.reserve(geom.pageAlignedCombos());
    for (unsigned rank = 0; rank < geom.pageAlignedCombos(); ++rank) {
        const unsigned slice = rank / geom.pageAlignedSetsPerSlice();
        const unsigned k = rank % geom.pageAlignedSetsPerSlice();
        out.push_back(static_cast<std::size_t>(slice) *
                          geom.setsPerSlice +
                      static_cast<std::size_t>(k) * blocksPerPage);
    }
    return out;
}

std::vector<std::size_t>
Testbed::ringComboSequence(std::size_t q) const
{
    std::vector<std::size_t> out;
    out.reserve(driver_->ring(q).size());
    for (std::size_t i = 0; i < driver_->ring(q).size(); ++i)
        out.push_back(comboOf(driver_->pageBase(i, q)));
    return out;
}

std::vector<std::size_t>
Testbed::ringComboSequence() const
{
    std::vector<std::size_t> out;
    out.reserve(driver_->totalDescriptors());
    for (std::size_t q = 0; q < driver_->numQueues(); ++q) {
        const std::vector<std::size_t> qs = ringComboSequence(q);
        out.insert(out.end(), qs.begin(), qs.end());
    }
    return out;
}

std::vector<std::vector<std::size_t>>
Testbed::queueComboSequences() const
{
    std::vector<std::vector<std::size_t>> out;
    out.reserve(driver_->numQueues());
    for (std::size_t q = 0; q < driver_->numQueues(); ++q)
        out.push_back(ringComboSequence(q));
    return out;
}

void
Testbed::rotateToRingHeads(
    std::vector<std::vector<std::size_t>> &queue_seqs) const
{
    if (queue_seqs.size() != driver_->numQueues())
        fatal("rotateToRingHeads: need one sequence per receive queue");
    for (std::size_t q = 0; q < queue_seqs.size(); ++q) {
        std::vector<std::size_t> &seq = queue_seqs[q];
        if (seq.empty())
            continue;
        const std::size_t head = driver_->ring(q).head();
        std::rotate(seq.begin(),
                    seq.begin() + static_cast<std::ptrdiff_t>(
                        head % seq.size()),
                    seq.end());
    }
}

std::vector<std::vector<std::size_t>>
Testbed::chaseSequences() const
{
    std::vector<std::vector<std::size_t>> seqs = queueComboSequences();
    rotateToRingHeads(seqs);
    return seqs;
}

std::vector<std::size_t>
Testbed::activeCombos() const
{
    std::vector<unsigned> counts(cfg_.llc.geom.pageAlignedCombos(), 0);
    for (std::size_t c : ringComboSequence())
        ++counts[c];
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < counts.size(); ++c)
        if (counts[c] > 0)
            out.push_back(c);
    return out;
}

std::vector<std::size_t>
Testbed::singleBufferCombos() const
{
    std::vector<unsigned> counts(cfg_.llc.geom.pageAlignedCombos(), 0);
    for (std::size_t c : ringComboSequence())
        ++counts[c];
    std::vector<std::size_t> out;
    for (std::size_t c = 0; c < counts.size(); ++c)
        if (counts[c] == 1)
            out.push_back(c);
    return out;
}

} // namespace pktchase::testbed
