#include "address_space.hh"

#include "sim/logging.hh"

namespace pktchase::mem
{

AddressSpace::AddressSpace(PhysMem &phys, Owner owner)
    : phys_(phys), owner_(owner)
{
}

Addr
AddressSpace::mmap(std::size_t pages)
{
    if (pages == 0)
        panic("AddressSpace::mmap of zero pages");
    const Addr base_vpn = kBaseVpn + frames_.size();
    for (std::size_t i = 0; i < pages; ++i)
        frames_.push_back(phys_.allocFrame(owner_));
    mappedPages_ += pages;
    return base_vpn * pageBytes;
}

void
AddressSpace::munmapPage(Addr vaddr)
{
    const Addr slot = slotOf(vaddr);
    if (!live(slot))
        panic("AddressSpace::munmapPage of unmapped page");
    phys_.freeFrame(frames_[slot]);
    frames_[slot] = kUnmapped;
    --mappedPages_;
}

Addr
AddressSpace::translate(Addr vaddr) const
{
    const Addr slot = slotOf(vaddr);
    if (!live(slot))
        panic("AddressSpace::translate fault (unmapped page)");
    return frames_[slot] + (vaddr & (pageBytes - 1));
}

bool
AddressSpace::mapped(Addr vaddr) const
{
    return live(slotOf(vaddr));
}

} // namespace pktchase::mem
