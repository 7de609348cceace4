#include "registry.hh"

#include <algorithm>
#include <climits>

#include "defense/gated_policy.hh"
#include "detect/detector.hh"
#include "nic/rss.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace pktchase::defense
{

namespace
{

/** Parse attempt without fatal(); returns false on malformed syntax. */
bool
tryParse(const std::string &text, Spec &out)
{
    const std::size_t dot = text.find('.');
    if (dot == std::string::npos || dot == 0)
        return false;
    out.domain = text.substr(0, dot);
    if (out.domain != "ring" && out.domain != "cache" &&
        out.domain != "nic")
        return false;

    std::string rest = text.substr(dot + 1);
    const std::size_t colon = rest.find(':');
    out.hasParam = colon != std::string::npos;
    if (out.hasParam) {
        const std::string param = rest.substr(colon + 1);
        rest = rest.substr(0, colon);
        if (out.domain == "ring" && rest == "gated") {
            // The one textual production: "<detector>:<inner>", with
            // exactly one inner ':' and nothing empty on either side.
            const std::size_t c2 = param.find(':');
            if (c2 == std::string::npos || c2 == 0 ||
                c2 + 1 >= param.size() ||
                param.find(':', c2 + 1) != std::string::npos)
                return false;
            out.text = param;
        } else {
            // The spec grammar caps a count at 19 digits.
            if (param.size() > 19 ||
                !sim::parseDecimalU64(param, out.param))
                return false;
        }
    }
    if (rest.empty() || rest.find(':') != std::string::npos)
        return false;
    out.policy = rest;
    return true;
}

/** Insert-or-replace an entry in one domain's table. */
template <typename Entry, typename Factory>
void
upsert(std::vector<Entry> &entries, const std::string &policy,
       const std::string &description, bool takes_param,
       Factory factory)
{
    for (Entry &e : entries) {
        if (e.policy == policy) {
            e = Entry{policy, description, takes_param,
                      std::move(factory)};
            return;
        }
    }
    entries.push_back(Entry{policy, description, takes_param,
                            std::move(factory)});
}

template <typename Entry>
const Entry *
findEntry(const std::vector<Entry> &entries, const std::string &policy)
{
    for (const Entry &e : entries)
        if (e.policy == policy)
            return &e;
    return nullptr;
}

/** Domain-check + lookup shared by makeRing/makeCache; fatal on miss. */
template <typename Entry>
const Entry &
resolveEntry(const std::vector<Entry> &entries,
             const std::string &spec_text, const Spec &spec,
             const std::string &domain)
{
    if (spec.domain != domain) {
        fatal("defense::Registry: \"" + spec_text + "\" is not a " +
              domain + " spec");
    }
    const Entry *e = findEntry(entries, spec.policy);
    if (!e) {
        fatal("defense::Registry: unknown " + domain + " policy \"" +
              spec_text + "\"");
    }
    return *e;
}

/**
 * Whether a parsed nic-domain spec names a usable configuration: the
 * single validity rule shared by Registry::contains() and the fatal
 * nicQueues() parser.
 */
bool
validNicSpec(const Spec &spec)
{
    return spec.policy == "queues" &&
        (!spec.hasParam ||
         (spec.param >= 1 &&
          spec.param <= nic::RssSteering::kRetaEntries));
}

/**
 * Whether @p spec's count is one its built-in policy's constructor
 * accepts. contains() checks it here because the constructors fatal,
 * with their own messages, on the counts they refuse: the partial
 * interval, the quarantine depth and the DDIO way count must be
 * nonzero, and the way count must fit an unsigned.
 */
bool
countFits(const Spec &spec)
{
    if (!spec.hasParam)
        return true;
    const std::string name = spec.domain + "." + spec.policy;
    if (name == "ring.partial" || name == "ring.quarantine")
        return spec.param != 0;
    if (name == "cache.ddio-ways")
        return spec.param != 0 && spec.param <= UINT_MAX;
    return true;
}

} // namespace

Spec
parseSpec(const std::string &text)
{
    Spec spec;
    if (!tryParse(text, spec)) {
        fatal("defense::parseSpec: malformed spec \"" + text +
              "\" (expected \"ring.<policy>[:<param>]\" or "
              "\"cache.<policy>[:<param>]\")");
    }
    return spec;
}

bool
isSpecSyntax(const std::string &text)
{
    Spec spec;
    return tryParse(text, spec);
}

Registry &
Registry::instance()
{
    static Registry reg;
    return reg;
}

Registry::Registry()
{
    // ---------------------------------------------------- ring built-ins
    addRing("none", "vulnerable baseline: buffers recycle in place",
            false, [](const Spec &) {
                return std::make_unique<nic::NonePolicy>();
            });
    addRing("full", "fresh random buffer for every packet (Sec. VI)",
            false, [](const Spec &) {
                return std::make_unique<nic::FullRandomPolicy>();
            });
    addRing("partial",
            "reshuffle the whole ring every N packets (Sec. VI)",
            true, [](const Spec &s) {
                return std::make_unique<nic::PartialPeriodicPolicy>(
                    s.hasParam
                        ? s.param
                        : nic::PartialPeriodicPolicy::kDefaultInterval);
            });
    addRing("offset",
            "random intra-page buffer offset on every recycle",
            false, [](const Spec &) {
                return std::make_unique<nic::RandomOffsetPolicy>();
            });
    addRing("quarantine",
            "delayed recycle through a FIFO pool of N spare pages",
            true, [](const Spec &s) {
                return std::make_unique<nic::QuarantinePolicy>(
                    s.hasParam ? s.param
                               : nic::QuarantinePolicy::kDefaultDepth);
            });
    addRing("gated",
            "arm an inner ring defense only while a detector alarms "
            "(\"ring.gated:<detector>:<inner>\")",
            true,
            [](const Spec &s) -> std::unique_ptr<nic::BufferPolicy> {
                if (s.text.empty()) {
                    fatal("defense::Registry: ring.gated needs "
                          "\"ring.gated:<detector>:<inner>\"");
                }
                const std::string full = "ring.gated:" + s.text;
                return std::make_unique<GatedPolicy>(
                    gatedDetectorOf(full),
                    makeRingPolicy(gatedInnerOf(full)));
            });

    // --------------------------------------------------- cache built-ins
    addCache("no-ddio",
             "memory-first DMA: write DRAM, snoop-invalidate", false,
             [](const Spec &) {
                 return std::make_unique<cache::NoDdioPolicy>();
             });
    addCache("ddio", "DDIO baseline: inject at the configured way cap",
             false, [](const Spec &) {
                 return std::make_unique<cache::DdioPolicy>();
             });
    addCache("ddio-ways",
             "DDIO restricted to exactly N allocation ways per set",
             true, [](const Spec &s) {
                 return std::make_unique<cache::DdioWaysPolicy>(
                     s.hasParam ? s.param : 2u);
             });
    addCache("adaptive",
             "Sec. VII adaptive I/O cache partitioning", false,
             [](const Spec &) {
                 return std::make_unique<cache::AdaptivePartitionPolicy>();
             });
}

void
Registry::addRing(const std::string &policy,
                  const std::string &description, bool takes_param,
                  RingFactory factory)
{
    upsert(ring_, policy, description, takes_param,
           std::move(factory));
}

void
Registry::addCache(const std::string &policy,
                   const std::string &description, bool takes_param,
                   CacheFactory factory)
{
    upsert(cache_, policy, description, takes_param,
           std::move(factory));
}

void
Registry::checkParam(const Spec &spec, bool takes_param) const
{
    if (spec.hasParam && !takes_param) {
        fatal("defense::Registry: policy \"" + spec.domain + "." +
              spec.policy + "\" does not take a parameter");
    }
}

std::unique_ptr<nic::BufferPolicy>
Registry::makeRing(const std::string &spec_text) const
{
    const Spec spec = parseSpec(spec_text);
    const RingEntry &e = resolveEntry(ring_, spec_text, spec, "ring");
    checkParam(spec, e.takesParam);
    return e.factory(spec);
}

std::unique_ptr<cache::InjectionPolicy>
Registry::makeCache(const std::string &spec_text) const
{
    const Spec spec = parseSpec(spec_text);
    const CacheEntry &e =
        resolveEntry(cache_, spec_text, spec, "cache");
    checkParam(spec, e.takesParam);
    return e.factory(spec);
}

bool
Registry::contains(const std::string &spec_text) const
{
    Spec spec;
    if (!tryParse(spec_text, spec))
        return false;
    if (spec.domain == "nic")
        return validNicSpec(spec);
    if (spec.domain == "ring") {
        if (spec.policy == "gated") {
            // Instantiable only with a detector and a known inner
            // policy; a bare "ring.gated" has nothing to gate. The
            // non-fatal isGatedRingSpec guard keeps contains() from
            // reaching the fatal accessors on anything malformed.
            if (spec.text.empty())
                return false;
            const std::string full = "ring.gated:" + spec.text;
            if (!isGatedRingSpec(full))
                return false;
            return detect::isDetectorName(gatedDetectorOf(full)) &&
                contains(gatedInnerOf(full));
        }
        const RingEntry *e = findEntry(ring_, spec.policy);
        return e && (!spec.hasParam || e->takesParam) && countFits(spec);
    }
    const CacheEntry *e = findEntry(cache_, spec.policy);
    return e && (!spec.hasParam || e->takesParam) && countFits(spec);
}

std::vector<std::string>
Registry::names(const std::string &domain) const
{
    std::vector<std::string> out;
    if (domain == "ring") {
        for (const RingEntry &e : ring_)
            out.push_back("ring." + e.policy);
    } else if (domain == "cache") {
        for (const CacheEntry &e : cache_)
            out.push_back("cache." + e.policy);
    } else {
        fatal("defense::Registry::names: unknown domain \"" +
              domain + "\"");
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string
Registry::description(const std::string &spec_text) const
{
    const Spec spec = parseSpec(spec_text);
    if (spec.domain == "ring") {
        if (const RingEntry *e = findEntry(ring_, spec.policy))
            return e->description;
    } else if (const CacheEntry *e = findEntry(cache_, spec.policy)) {
        return e->description;
    }
    fatal("defense::Registry: unknown policy \"" + spec_text + "\"");
}

std::unique_ptr<nic::BufferPolicy>
makeRingPolicy(const std::string &spec)
{
    return Registry::instance().makeRing(spec);
}

std::unique_ptr<cache::InjectionPolicy>
makeCachePolicy(const std::string &spec)
{
    return Registry::instance().makeCache(spec);
}

std::string
canonicalSpec(const std::string &spec_text)
{
    const Spec spec = parseSpec(spec_text);
    if (spec.domain == "ring")
        return Registry::instance().makeRing(spec_text)->name();
    if (spec.domain == "nic")
        return nicSpecOf(nicQueues(spec_text));
    return Registry::instance().makeCache(spec_text)->name();
}

std::size_t
nicQueues(const std::string &spec_text)
{
    if (spec_text.empty())
        return nic::kDefaultQueues;
    const Spec spec = parseSpec(spec_text);
    if (spec.domain != "nic" || spec.policy != "queues") {
        fatal("defense::nicQueues: \"" + spec_text +
              "\" is not a \"nic.queues[:<N>]\" spec");
    }
    if (!validNicSpec(spec)) {
        fatal("defense::nicQueues: queue count in \"" + spec_text +
              "\" must be in [1, " +
              std::to_string(nic::RssSteering::kRetaEntries) + "]");
    }
    return spec.hasParam ? static_cast<std::size_t>(spec.param)
                         : nic::kDefaultQueues;
}

std::string
nicSpecOf(std::size_t queues)
{
    return "nic.queues:" + std::to_string(queues);
}

std::string
Cell::name() const
{
    std::string n = canonicalSpec(ring) + "+" + canonicalSpec(cache);
    const std::size_t q = queues();
    if (q != nic::kDefaultQueues)
        n += "+" + nicSpecOf(q);
    return n;
}

Cell
parseCell(const std::string &text)
{
    const std::size_t plus = text.find('+');
    // A trailing '+' would leave an empty nic spec, which silently
    // means the default queue count.
    if (plus == std::string::npos || text.back() == '+') {
        fatal("defense::parseCell: malformed cell \"" + text +
              "\" (expected \"<ring spec>+<cache spec>"
              "[+<nic spec>]\")");
    }
    Cell cell;
    cell.ring = text.substr(0, plus);
    std::string rest = text.substr(plus + 1);
    const std::size_t plus2 = rest.find('+');
    if (plus2 != std::string::npos) {
        cell.cache = rest.substr(0, plus2);
        cell.nic = rest.substr(plus2 + 1);
    } else {
        cell.cache = rest;
    }
    const Spec ring = parseSpec(cell.ring);
    const Spec cache = parseSpec(cell.cache);
    if (ring.domain != "ring" || cache.domain != "cache") {
        fatal("defense::parseCell: \"" + text + "\" must pair a "
              "ring spec with a cache spec, in that order");
    }
    nicQueues(cell.nic); // Validates the optional nic part.
    return cell;
}

} // namespace pktchase::defense
