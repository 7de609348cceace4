/**
 * @file
 * Per-process virtual address spaces.
 *
 * The spy is an unprivileged process: it sees only virtual addresses and
 * cannot read /proc/self/pagemap. Its eviction-set construction therefore
 * has to work from timing alone. The AddressSpace maps virtual pages to
 * whatever (randomized) frames PhysMem hands out, modelling exactly that
 * constraint.
 */

#ifndef PKTCHASE_MEM_ADDRESS_SPACE_HH
#define PKTCHASE_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace pktchase::mem
{

/**
 * A virtual-to-physical page mapping for one simulated process.
 *
 * mmap hands out consecutive VPNs from a fixed base, so the page table
 * is a flat vector indexed by VPN minus that base; an unmapped page
 * keeps its slot as a tombstone.
 */
class AddressSpace
{
  public:
    /**
     * @param phys  Backing physical memory (not owned; must outlive us).
     * @param owner Accounting tag used for frames mapped by this space.
     */
    AddressSpace(PhysMem &phys, Owner owner);

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Map @p pages fresh anonymous pages at the first unused virtual
     * page range and return the starting virtual address.
     */
    Addr mmap(std::size_t pages);

    /** Unmap and free a single previously mapped page. */
    void munmapPage(Addr vaddr);

    /**
     * Translate a virtual address to physical.
     * Panics on unmapped addresses (a segfault in the real system).
     */
    Addr translate(Addr vaddr) const;

    /** Whether the page containing @p vaddr is mapped. */
    bool mapped(Addr vaddr) const;

    /** Number of currently mapped pages. */
    std::size_t pageCount() const { return mappedPages_; }

  private:
    /** Arbitrary nonzero mmap base. */
    static constexpr Addr kBaseVpn = 0x10000;
    /** Tombstone of an unmapped slot: no frame base is all ones. */
    static constexpr Addr kUnmapped = ~Addr(0);

    PhysMem &phys_;
    Owner owner_;
    std::vector<Addr> frames_; ///< vpn - kBaseVpn -> frame base.
    std::size_t mappedPages_ = 0;

    /** frames_ index of @p vaddr's page; a VPN below the base wraps
     *  to an index past the end. */
    static Addr slotOf(Addr vaddr) { return vaddr / pageBytes - kBaseVpn; }

    /** Whether frames_ index @p slot holds a mapped page. */
    bool
    live(Addr slot) const
    {
        return slot < frames_.size() && frames_[slot] != kUnmapped;
    }
};

} // namespace pktchase::mem

#endif // PKTCHASE_MEM_ADDRESS_SPACE_HH
