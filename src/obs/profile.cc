#include "profile.hh"

#include <cstdio>

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

/** The process-wide session. */
ProfileSession *activeProfile = nullptr;

/** Escape the characters JSON string literals cannot hold raw. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

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

ProfileSession::ProfileSession(std::uint64_t tick_ns,
                               std::string trace_path,
                               std::size_t trace_cap)
    : tickNs_(tick_ns), tracePath_(std::move(trace_path)),
      traceCap_(tracePath_.empty() ? 0 : trace_cap),
      epochNs_(tick_ns ? 0 : detail::ProfileBlock::wallNs())
{
    if (activeProfile)
        fatal("ProfileSession: a session is already active");
    if (!tracePath_.empty() && trace_cap == 0)
        fatal("ProfileSession: trace cap must be nonzero");
    activeProfile = this;
    attachCurrentThread(0, "driver");
}

ProfileSession::~ProfileSession()
{
    detachCurrentThread();
    writeTrace();
    activeProfile = nullptr;
}

ProfileSession *
ProfileSession::active()
{
    return activeProfile;
}

void
ProfileSession::attachCurrentThread(std::uint32_t tid, std::string name)
{
    if (detail::tlsProfile())
        fatal("ProfileSession: this thread is already attached");
    auto block = std::make_unique<detail::ProfileBlock>();
    block->tickNs = tickNs_;
    block->threadName = std::move(name);
    block->spanCap = traceCap_;
    if (traceCap_ != 0)
        block->spans.reserve(1024);
    detail::ProfileBlock *raw = block.get();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        blocks_.emplace(tid, std::move(block));
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

std::uint64_t
ProfileSession::droppedEvents() const
{
    std::uint64_t dropped = 0;
    for (const ThreadDrops &t : perThreadDrops())
        dropped += t.dropped;
    return dropped;
}

std::vector<ProfileSession::ThreadDrops>
ProfileSession::perThreadDrops() const
{
    std::vector<ThreadDrops> out;
    if (tracePath_.empty())
        return out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[tid, b] : blocks_) {
        if (out.empty() || out.back().tid != tid)
            out.push_back(ThreadDrops{tid, 0});
        out.back().dropped += b->dropped;
    }
    return out;
}

bool
ProfileSession::writeTrace()
{
    // Callers must have detached every worker (the campaign joins its
    // workers before returning), so the blocks are stable here.
    if (written_ || tracePath_.empty())
        return writeOk_;
    written_ = true;

    FILE *f = std::fopen(tracePath_.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "trace: cannot write %s\n",
                     tracePath_.c_str());
        writeOk_ = false;
        return false;
    }

    std::fprintf(f, "{\"displayTimeUnit\": \"ms\",\n"
                    " \"traceEvents\": [\n");
    bool first = true;
    auto comma = [&] {
        if (!first)
            std::fprintf(f, ",\n");
        first = false;
    };
    auto micros = [this](std::uint64_t ns) {
        return static_cast<double>(ns > epochNs_ ? ns - epochNs_ : 0) /
               1e3;
    };

    std::vector<const char *> names;
    std::vector<const char *> cats;
    for (std::size_t id = 0; id < registeredPhaseCount(); ++id) {
        names.push_back(phaseName(id));
        cats.push_back(phaseCat(id));
    }

    std::uint64_t dropped = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[tid, b] : blocks_) {
        comma();
        std::fprintf(f,
                     "  {\"ph\": \"M\", \"name\": \"thread_name\", "
                     "\"pid\": 0, \"tid\": %u, "
                     "\"args\": {\"name\": \"%s\"}}",
                     tid, jsonEscape(b->threadName).c_str());
        for (const detail::SpanRecord &s : b->spans) {
            const std::string name =
                jsonEscape(s.name == detail::ProfileBlock::kPhaseName
                               ? names[s.phase]
                               : b->names[s.name]);
            comma();
            std::fprintf(f,
                         "  {\"ph\": \"X\", \"name\": \"%s\", "
                         "\"cat\": \"%s\", \"ts\": %.3f, "
                         "\"dur\": %.3f, \"pid\": 0, \"tid\": %u}",
                         name.c_str(), cats[s.phase], micros(s.startNs),
                         static_cast<double>(s.durNs) / 1e3, tid);
        }
        if (b->dropped > 0) {
            dropped += b->dropped;
            comma();
            std::fprintf(f,
                         "  {\"ph\": \"i\", \"s\": \"t\", "
                         "\"name\": \"dropped_events: %llu\", "
                         "\"cat\": \"obs\", \"ts\": %.3f, "
                         "\"pid\": 0, \"tid\": %u}",
                         static_cast<unsigned long long>(b->dropped),
                         micros(b->tickNs ? b->fakeNowNs
                                          : detail::ProfileBlock::wallNs()),
                         tid);
        }
    }
    std::fprintf(f, "\n ]\n}\n");
    const bool failed = std::ferror(f) != 0;
    writeOk_ = std::fclose(f) == 0 && !failed;
    if (!writeOk_) {
        std::fprintf(stderr, "trace: cannot write %s\n",
                     tracePath_.c_str());
        return false;
    }

    if (dropped > 0) {
        std::fprintf(stderr,
                     "trace: %llu events dropped (per-thread cap %zu "
                     "reached); the trace is truncated\n",
                     static_cast<unsigned long long>(dropped), traceCap_);
    }
    return true;
}

void
attachWorkerThread(unsigned worker_index)
{
    if (ProfileSession *s = activeProfile)
        s->attachCurrentThread(worker_index + 1,
                               "worker-" + std::to_string(worker_index));
}

void
detachWorkerThread()
{
    ProfileSession::detachCurrentThread();
}

} // namespace pktchase::obs
