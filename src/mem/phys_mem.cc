#include "phys_mem.hh"

#include <numeric>
#include <string>

#include "sim/logging.hh"

namespace pktchase::mem
{

PhysMem::PhysMem(Addr bytes, Rng rng)
    : rng_(rng)
{
    if (bytes == 0 || bytes % pageBytes != 0)
        fatal("PhysMem capacity must be a nonzero multiple of 4 KB");
    const std::size_t frames = bytes / pageBytes;
    owners_.assign(frames, Owner::Free);
    freeList_.resize(frames);
    std::iota(freeList_.begin(), freeList_.end(), 0);
    rng_.shuffle(freeList_);
}

Addr
PhysMem::allocFrame(Owner owner)
{
    if (freeList_.empty())
        fatal("PhysMem out of frames");
    const Addr frame = freeList_.back();
    freeList_.pop_back();
    owners_[frame] = owner;
    return frame * pageBytes;
}

std::vector<Addr>
PhysMem::allocFrames(std::size_t count, Owner owner)
{
    // Check before reserving: a huge count must fail here on one
    // line, not in the vector's allocation.
    if (count > freeList_.size())
        fatal("PhysMem out of frames (" + std::to_string(count) +
              " requested, " + std::to_string(freeList_.size()) +
              " free)");
    std::vector<Addr> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(allocFrame(owner));
    return out;
}

void
PhysMem::freeFrame(Addr base)
{
    if (base % pageBytes != 0)
        panic("PhysMem::freeFrame on unaligned address");
    const Addr frame = base / pageBytes;
    if (frame >= owners_.size())
        panic("PhysMem::freeFrame out of range");
    if (owners_[frame] == Owner::Free)
        panic("PhysMem::freeFrame double free");
    owners_[frame] = Owner::Free;
    // Re-insert at a random position: a LIFO free list would hand the
    // same frame straight back, which defeats buffer randomization
    // defenses (and is unrealistic for a fragmented allocator).
    freeList_.push_back(frame);
    const std::size_t j = rng_.nextBounded(freeList_.size());
    std::swap(freeList_.back(), freeList_[j]);
}

Owner
PhysMem::ownerOf(Addr addr) const
{
    const Addr frame = addr / pageBytes;
    if (frame >= owners_.size())
        panic("PhysMem::ownerOf out of range");
    return owners_[frame];
}

} // namespace pktchase::mem
