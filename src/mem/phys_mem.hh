/**
 * @file
 * Physical memory frame allocator.
 *
 * The attack's geometry depends on where 4 KB page frames land in the
 * physical address space: the driver's rx buffers occupy effectively
 * random frames, which is what produces the non-uniform mapping of ring
 * buffers onto page-aligned cache sets (Figs. 5-6). The allocator hands
 * out frames in randomized order (buddy-allocator fragmentation proxy)
 * from a deterministic Rng so experiments are reproducible.
 */

#ifndef PKTCHASE_MEM_PHYS_MEM_HH
#define PKTCHASE_MEM_PHYS_MEM_HH

#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace pktchase::mem
{

/** Identifies the owner of a frame, for accounting and debugging. */
enum class Owner : std::uint8_t
{
    Free,
    Kernel,     ///< Driver rx buffers and other kernel structures
    Attacker,   ///< The spy process's eviction-set pages
    Victim,     ///< Server / victim application data
    Other,
};

/**
 * A flat physical memory of 4 KB frames with randomized allocation.
 */
class PhysMem
{
  public:
    /**
     * Construct a physical memory.
     *
     * @param bytes Total capacity; must be a multiple of the page size.
     * @param rng   Generator driving the randomized free list.
     */
    PhysMem(Addr bytes, Rng rng);

    /**
     * Allocate one frame.
     * @param owner Accounting tag for the allocation.
     * @return Physical base address of the frame (page aligned).
     */
    Addr allocFrame(Owner owner);

    /** Allocate @p count frames at once; fatal when fewer are free. */
    std::vector<Addr> allocFrames(std::size_t count, Owner owner);

    /** Return a frame to the free pool. */
    void freeFrame(Addr base);

    /** Owner tag of the frame containing @p addr. */
    Owner ownerOf(Addr addr) const;

    /** Number of frames still free. */
    std::size_t freeFrames() const { return freeList_.size(); }

    /** Total number of frames. */
    std::size_t totalFrames() const { return owners_.size(); }

    /** Total capacity in bytes. */
    Addr bytes() const { return totalFrames() * pageBytes; }

  private:
    Rng rng_;
    std::vector<Owner> owners_;
    std::vector<Addr> freeList_; ///< Frame numbers, pre-shuffled.
};

} // namespace pktchase::mem

#endif // PKTCHASE_MEM_PHYS_MEM_HH
