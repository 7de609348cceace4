/**
 * @file
 * A fully assembled attack testbed: physical memory, hierarchy (LLC +
 * DDIO), IGB driver, the spy's address space and eviction-set groups,
 * and a shared event queue. Mirrors the paper's machine: a PowerEdge
 * T620-class host with a 20 MB E5-2660 LLC and an I350 adapter driven
 * by the IGB driver.
 *
 * Experiments, examples, and benches build one Testbed and compose
 * traffic pumps and attack components on top of it.
 */

#ifndef PKTCHASE_TESTBED_TESTBED_HH
#define PKTCHASE_TESTBED_TESTBED_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/eviction_set.hh"
#include "cache/hierarchy.hh"
#include "detect/rig.hh"
#include "mem/address_space.hh"
#include "mem/phys_mem.hh"
#include "nic/igb_driver.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pktchase::testbed
{

/** Knobs for the assembled world. */
struct TestbedConfig
{
    cache::LlcConfig llc;
    cache::HierarchyConfig hier;
    nic::IgbConfig igb;
    attack::BuilderConfig builder;

    /**
     * Defense specs, built by defense::makeRingPolicy() and
     * defense::makeCachePolicy() at assembly: the software ring
     * defense driving the IGB driver's buffer recycling and the
     * cache-side DMA injection policy. The defaults are the paper's
     * vulnerable DDIO baseline.
     */
    std::string ringDefense = "ring.none";
    std::string cacheDefense = "cache.ddio";

    /**
     * NIC geometry spec ("nic.queues:4"), resolved through
     * defense::nicQueues at assembly. The empty default leaves
     * igb.queues as configured (the paper's single ring); a non-empty
     * spec overrides it, so grid cells can name their queue count the
     * same way they name their defenses.
     */
    std::string nicSpec = "";

    Addr physBytes = Addr(256) << 20; ///< 256 MB of frames.
    std::uint64_t seed = 1;

    /**
     * Scale everything down (slices/sets/ways/pool) for fast unit
     * tests while preserving all structural properties.
     */
    static TestbedConfig reduced();
};

/**
 * The assembled world.
 */
class Testbed
{
  public:
    explicit Testbed(const TestbedConfig &cfg);

    mem::PhysMem &phys() { return *phys_; }
    cache::Hierarchy &hier() { return *hier_; }
    nic::IgbDriver &driver() { return *driver_; }
    mem::AddressSpace &spySpace() { return *spySpace_; }
    attack::EvictionSetBuilder &builder() { return *builder_; }
    EventQueue &eq() { return eq_; }
    const TestbedConfig &config() const { return cfg_; }

    /**
     * The detection rig, or nullptr when none is attached. Assembly
     * attaches one automatically for gated ring defenses; score-only
     * experiments attach theirs with attachDetection().
     */
    detect::DetectionRig *detection() { return rig_.get(); }

    /**
     * Attach a detection rig over this testbed's LLC and driver,
     * hosting the detectors (and optional gate) @p cfg names. Fatal
     * when a rig is already attached (assembly attaches one for gated
     * ring defenses -- reuse it via detection()).
     */
    detect::DetectionRig &attachDetection(const detect::RigConfig &cfg);

    /**
     * The spy's pool partitioned by page-aligned combo (oracle path;
     * equivalent to the paper's driver-instrumentation ground truth).
     * Built lazily and cached.
     */
    const attack::ComboGroups &groups();

    /** Global set id of each combo rank, in rank order. */
    std::vector<std::size_t> comboGsets() const;

    /**
     * Ground-truth ring order as combo ranks (one per descriptor),
     * queue-major across all receive queues.
     */
    std::vector<std::size_t> ringComboSequence() const;

    /** Ground-truth combo ranks of receive queue @p q's ring only. */
    std::vector<std::size_t> ringComboSequence(std::size_t q) const;

    /** ringComboSequence(q) for every queue, in queue order. */
    std::vector<std::vector<std::size_t>> queueComboSequences() const;

    /**
     * Chase-ready sequences: queueComboSequences() with each queue's
     * sequence rotated so slot 0 is the slot that ring will fill
     * next. What a spy that has tracked every ring since setup would
     * hand attack::ChasingMonitor, one chase cursor per queue.
     */
    std::vector<std::vector<std::size_t>> chaseSequences() const;

    /**
     * Rotate one per-queue sequence per receive queue (e.g. a
     * perturbed copy of queueComboSequences()) so each starts at the
     * slot its ring will fill next; fatal on a queue-count mismatch.
     */
    void rotateToRingHeads(
        std::vector<std::vector<std::size_t>> &queue_seqs) const;

    /**
     * Combos to which exactly one ring buffer page maps -- the buffers
     * the covert channel prefers (Sec. IV-b).
     */
    std::vector<std::size_t> singleBufferCombos() const;

    /** Combos hosting at least one ring buffer page. */
    std::vector<std::size_t> activeCombos() const;

    /** Combo rank of a physical page base. */
    std::size_t comboOf(Addr page_base) const;

  private:
    TestbedConfig cfg_;
    std::unique_ptr<mem::PhysMem> phys_;
    std::unique_ptr<cache::Hierarchy> hier_;
    std::unique_ptr<nic::IgbDriver> driver_;
    std::unique_ptr<mem::AddressSpace> spySpace_;
    std::unique_ptr<attack::EvictionSetBuilder> builder_;
    EventQueue eq_;
    std::unique_ptr<attack::ComboGroups> groups_;

    /** Declared after hier_/driver_ so its destructor detaches the
     *  probes before the emitters die. */
    std::unique_ptr<detect::DetectionRig> rig_;
};

} // namespace pktchase::testbed

#endif // PKTCHASE_TESTBED_TESTBED_HH
