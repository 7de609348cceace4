#include "profile.hh"

#include <memory>
#include <mutex>

#include "sim/logging.hh"

namespace pktchase::obs
{

namespace
{

/** The phase registry: append-only, guarded for concurrent static
 *  init; lookups after registration are by value (id, const char*). */
struct PhaseRegistry
{
    std::mutex mutex;
    std::size_t count = 0;
    const char *names[kMaxProfilePhases] = {};
    const char *cats[kMaxProfilePhases] = {};
};

PhaseRegistry &
registry()
{
    static PhaseRegistry r;
    return r;
}

/** The process-wide session (same singleton discipline as tracing). */
ProfileSession *activeProfile = nullptr;

/** Blocks owned by the active session, retained until destruction so
 *  a detached worker's pointer never dangles mid-teardown. */
std::mutex blocksMutex;
std::vector<std::unique_ptr<detail::ProfileBlock>> blocks;

} // namespace

ProfilePhase::ProfilePhase(const char *name, const char *cat)
    : name_(name), cat_(cat)
{
    PhaseRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < r.count; ++i) {
        if (std::string(r.names[i]) == name)
            fatal("ProfilePhase: duplicate phase name '" +
                  std::string(name) + "'");
    }
    if (r.count >= kMaxProfilePhases)
        fatal("ProfilePhase: phase table full registering '" +
              std::string(name) + "'");
    id_ = static_cast<unsigned>(r.count);
    r.names[r.count] = name;
    r.cats[r.count] = cat;
    ++r.count;
}

std::size_t
registeredPhaseCount()
{
    PhaseRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.count;
}

const char *
phaseName(std::size_t id)
{
    PhaseRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (id >= r.count)
        fatal("phaseName: id " + std::to_string(id) + " out of range");
    return r.names[id];
}

const char *
phaseCat(std::size_t id)
{
    PhaseRegistry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    if (id >= r.count)
        fatal("phaseCat: id " + std::to_string(id) + " out of range");
    return r.cats[id];
}

void
mergeProfileInto(ProfileDelta &into, const ProfileDelta &from)
{
    if (from.size() > into.size())
        into.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i].merge(from[i]);
}

ProfileDelta
drainProfile()
{
    detail::ProfileBlock *p = detail::tlsProfile();
    if (!p)
        return {};
    ProfileDelta out(registeredPhaseCount());
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = p->slots[i];
        p->slots[i] = PhaseStats{};
    }
    return out;
}

std::uint64_t
profileDepthOverflows()
{
    detail::ProfileBlock *p = detail::tlsProfile();
    return p ? p->depthOverflows : 0;
}

ProfileSession::ProfileSession(std::uint64_t tick_ns) : tickNs_(tick_ns)
{
    if (activeProfile)
        fatal("ProfileSession: a session is already active");
    activeProfile = this;
    attachCurrentThread();
}

ProfileSession::~ProfileSession()
{
    detachCurrentThread();
    activeProfile = nullptr;
    std::lock_guard<std::mutex> lock(blocksMutex);
    blocks.clear();
}

ProfileSession *
ProfileSession::active()
{
    return activeProfile;
}

void
ProfileSession::attachCurrentThread()
{
    if (detail::tlsProfile())
        fatal("ProfileSession: this thread is already attached");
    auto block = std::make_unique<detail::ProfileBlock>();
    block->tickNs = tickNs_;
    detail::ProfileBlock *raw = block.get();
    {
        std::lock_guard<std::mutex> lock(blocksMutex);
        blocks.push_back(std::move(block));
    }
    detail::tlsProfile() = raw;
}

void
ProfileSession::detachCurrentThread()
{
    detail::tlsProfile() = nullptr;
}

std::string
ProfileSession::clockTag() const
{
    if (tickNs_ == 0)
        return "wall";
    return "ticks:" + std::to_string(tickNs_);
}

} // namespace pktchase::obs
