#include "replacement.hh"

#include "sim/logging.hh"

namespace pktchase::cache
{

// touch/victim/reset live in the header so the Llc's access paths can
// inline them.

void
LruPolicy::panicEmptyMask()
{
    panic("LruPolicy::victim with empty candidate mask");
}

} // namespace pktchase::cache
