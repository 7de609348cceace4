#include "registry.hh"

#include <algorithm>
#include <climits>
#include <cstdint>

#include "defense/gated_policy.hh"
#include "detect/detector.hh"
#include "nic/rss.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace pktchase::defense
{

namespace
{

/** One built-in policy. */
struct Builtin
{
    const char *name;          ///< "<domain>.<policy>".
    const char *description;
    const char *param;         ///< What the count sets; nullptr if none.
    std::uint64_t maxCount;    ///< Largest count taken; the smallest is 1.
};

/**
 * Every policy a spec can name. Adding a ring or cache policy takes a
 * row here and a case in buildRing() or buildCache(); a count the
 * spec omits takes the policy class's default. ring.gated takes no
 * count: parse() reads its "<detector>:<inner>" parameter.
 */
constexpr Builtin kBuiltins[] = {
    {"ring.none", "vulnerable baseline: buffers recycle in place",
     nullptr, 0},
    {"ring.full", "fresh random buffer for every packet (Sec. VI)",
     nullptr, 0},
    {"ring.partial",
     "reshuffle the whole ring every N packets (Sec. VI)", "interval",
     UINT64_MAX},
    {"ring.offset", "random intra-page buffer offset on every recycle",
     nullptr, 0},
    {"ring.quarantine",
     "delayed recycle through a FIFO pool of N spare pages", "depth",
     UINT64_MAX},
    {"ring.gated",
     "arm an inner ring defense only while a detector alarms "
     "(\"ring.gated:<detector>:<inner>\")",
     nullptr, 0},
    {"cache.no-ddio", "memory-first DMA: write DRAM, snoop-invalidate",
     nullptr, 0},
    {"cache.ddio", "DDIO baseline: inject at the configured way cap",
     nullptr, 0},
    {"cache.ddio-ways",
     "DDIO restricted to exactly N allocation ways per set",
     "ddio-ways", UINT_MAX},
    {"cache.adaptive", "Sec. VII adaptive I/O cache partitioning",
     nullptr, 0},
    {"nic.queues", "N RSS receive queues, one descriptor ring each",
     "queues", nic::RssSteering::kRetaEntries},
};

constexpr const char *kMalformed =
    "malformed spec (expected \"<domain>.<policy>[:<count>]\")";
constexpr const char *kGateUsage =
    "ring.gated needs \"ring.gated:<detector>:<inner>\"";

/** The row named @p name ("ring.partial"), or nullptr. */
const Builtin *
lookup(const std::string &name)
{
    for (const Builtin &b : kBuiltins) {
        if (name == b.name)
            return &b;
    }
    return nullptr;
}

/** The table's names in @p domain, sorted; none for unknown domains. */
std::vector<std::string>
namesOf(const std::string &domain)
{
    std::vector<std::string> out;
    for (const Builtin &b : kBuiltins) {
        const std::string name = b.name;
        if (name.compare(0, name.find('.'), domain) == 0)
            out.push_back(name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** "(known: ring.full, ring.gated, ...)" for @p domain. */
std::string
known(const std::string &domain)
{
    std::string list;
    for (const std::string &name : namesOf(domain))
        list += (list.empty() ? "" : ", ") + name;
    return "(known: " + list + ")";
}

/** What a spec names, once parse() has checked it. */
struct Parsed
{
    Spec spec;
    std::string detector;  ///< ring.gated only: the gate detector
    Spec inner;            ///< and the ring policy it arms.
};

/**
 * Check "<policy>[<sep><count>]" against @p domain's table rows: fill
 * @p out and return "", or return why the text is rejected. Refuses
 * ring.gated, whose parameter parse() reads.
 */
std::string
parsePolicy(const std::string &domain, const std::string &text,
            char sep, Spec &out)
{
    const std::size_t cut = text.find(sep);
    out.domain = domain;
    out.policy = text.substr(0, cut);
    if (out.policy.empty())
        return kMalformed;
    const std::string name = domain + "." + out.policy;
    const Builtin *b = lookup(name);
    if (!b)
        return "unknown " + domain + " policy \"" + out.policy + "\" " +
            known(domain);
    if (name == "ring.gated")
        return kGateUsage;
    out.hasParam = cut != std::string::npos;
    if (!out.hasParam)
        return "";
    // The grammar caps a count at 19 digits.
    const std::string count = text.substr(cut + 1);
    if (count.size() > 19 || !sim::parseDecimalU64(count, out.param))
        return "malformed spec: count \"" + count +
            "\" is not 1 to 19 decimal digits";
    if (!b->param)
        return "policy \"" + name + "\" does not take a parameter";
    const std::string range =
        ": it must be in [1, " + std::to_string(b->maxCount) + "]";
    if (out.param == 0)
        return std::string(b->param) + " must be nonzero" + range;
    if (out.param > b->maxCount)
        return std::string(b->param) + " " + count + " does not fit" +
            range;
    return "";
}

/**
 * The one spec parser: fill @p out and return "" if @p text names a
 * built-in policy with a parameter it takes, or return why not.
 */
std::string
parse(const std::string &text, Parsed &out)
{
    const std::size_t dot = text.find('.');
    if (dot == std::string::npos || dot == 0)
        return kMalformed;
    const std::string domain = text.substr(0, dot);
    if (namesOf(domain).empty())
        return "unknown domain \"" + domain + "\"";
    const std::string body = text.substr(dot + 1);
    const std::string gate = "gated:";
    if (domain != "ring" || body.compare(0, gate.size(), gate) != 0)
        return parsePolicy(domain, body, ':', out.spec);

    // "<detector>:<inner>": nothing empty, no third ':'.
    out.spec.domain = "ring";
    out.spec.policy = "gated";
    const std::string param = body.substr(gate.size());
    const std::size_t colon = param.find(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == param.size() ||
        param.find(':', colon + 1) != std::string::npos)
        return kGateUsage;
    out.detector = param.substr(0, colon);
    if (!detect::isDetectorName(out.detector))
        return "unknown gate detector \"" + out.detector + "\"";
    const std::string reason =
        parsePolicy("ring", param.substr(colon + 1), '.', out.inner);
    if (out.inner.policy == "gated")
        return "a gate cannot wrap another gate";
    return reason;
}

/**
 * Parse @p spec as a spec of @p domain (any domain if empty), or fatal
 * with the reason, naming the @p cell it came from if one is given.
 */
Parsed
parseAs(const std::string &spec, const std::string &domain,
        const std::string &cell = "")
{
    Parsed p;
    std::string reason = parse(spec, p);
    if (reason.empty() && !domain.empty() && p.spec.domain != domain)
        reason = "not a " + domain + " spec " + known(domain);
    if (reason.empty())
        return p;
    std::string where = "\"" + spec + "\"";
    if (!cell.empty())
        where += " in \"" + cell + "\"";
    fatal("defense: " + where + ": " + reason);
}

/** Build the ring policy @p s names, unless it is a gate. */
std::unique_ptr<nic::BufferPolicy>
buildRing(const Spec &s)
{
    if (s.policy == "none")
        return std::make_unique<nic::NonePolicy>();
    if (s.policy == "full")
        return std::make_unique<nic::FullRandomPolicy>();
    if (s.policy == "partial") {
        return std::make_unique<nic::PartialPeriodicPolicy>(
            s.hasParam ? s.param
                       : nic::PartialPeriodicPolicy::kDefaultInterval);
    }
    if (s.policy == "offset")
        return std::make_unique<nic::RandomOffsetPolicy>();
    if (s.policy == "quarantine") {
        return std::make_unique<nic::QuarantinePolicy>(
            s.hasParam ? s.param : nic::QuarantinePolicy::kDefaultDepth);
    }
    panic("defense: no factory for ring." + s.policy);
}

/** Build the ring policy @p p names, gates included. */
std::unique_ptr<nic::BufferPolicy>
ringOf(const Parsed &p)
{
    if (p.spec.policy != "gated")
        return buildRing(p.spec);
    return std::make_unique<GatedPolicy>(p.detector, buildRing(p.inner));
}

std::unique_ptr<cache::InjectionPolicy>
buildCache(const Spec &s)
{
    if (s.policy == "no-ddio")
        return std::make_unique<cache::NoDdioPolicy>();
    if (s.policy == "ddio")
        return std::make_unique<cache::DdioPolicy>();
    if (s.policy == "ddio-ways") {
        return std::make_unique<cache::DdioWaysPolicy>(
            s.hasParam ? s.param : 2u);
    }
    if (s.policy == "adaptive")
        return std::make_unique<cache::AdaptivePartitionPolicy>();
    panic("defense: no factory for cache." + s.policy);
}

std::size_t
queuesOf(const Spec &s)
{
    return s.hasParam ? static_cast<std::size_t>(s.param)
                      : nic::kDefaultQueues;
}

} // namespace

Spec
parseSpec(const std::string &text)
{
    return parseAs(text, "").spec;
}

bool
contains(const std::string &spec)
{
    Parsed p;
    return parse(spec, p).empty();
}

std::unique_ptr<nic::BufferPolicy>
makeRingPolicy(const std::string &spec)
{
    return ringOf(parseAs(spec, "ring"));
}

std::unique_ptr<cache::InjectionPolicy>
makeCachePolicy(const std::string &spec)
{
    return buildCache(parseAs(spec, "cache").spec);
}

std::string
canonicalSpec(const std::string &spec)
{
    const Parsed p = parseAs(spec, "");
    if (p.spec.domain == "ring")
        return ringOf(p)->name();
    if (p.spec.domain == "cache")
        return buildCache(p.spec)->name();
    return nicSpecOf(queuesOf(p.spec));
}

std::size_t
nicQueues(const std::string &spec)
{
    if (spec.empty())
        return nic::kDefaultQueues;
    return queuesOf(parseAs(spec, "nic").spec);
}

std::string
nicSpecOf(std::size_t queues)
{
    return "nic.queues:" + std::to_string(queues);
}

std::vector<std::string>
names(const std::string &domain)
{
    std::vector<std::string> out = namesOf(domain);
    if (out.empty())
        fatal("defense: unknown domain \"" + domain + "\"");
    return out;
}

std::string
description(const std::string &spec)
{
    const Builtin *b = lookup(spec);
    if (!b) {
        const Spec s = parseSpec(spec);
        b = lookup(s.domain + "." + s.policy);
    }
    return b->description;
}

std::string
Cell::name() const
{
    std::string n = makeRingPolicy(ring)->name() + "+" +
        makeCachePolicy(cache)->name();
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
        fatal("defense: malformed cell \"" + text +
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
    parseAs(cell.ring, "ring", text);
    parseAs(cell.cache, "cache", text);
    if (!cell.nic.empty())
        parseAs(cell.nic, "nic", text);
    return cell;
}

} // namespace pktchase::defense
