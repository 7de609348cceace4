/**
 * @file
 * String-spec registry for defense policies: the single place where
 * defense names, parsing, and factories live.
 *
 * A spec is "<domain>.<policy>[:<param>]" where domain is "ring" (a
 * nic::BufferPolicy over the driver's recycling path), "cache" (a
 * cache::InjectionPolicy over the LLC's DMA path), or "nic" (NIC
 * geometry -- today the RSS queue count), e.g.:
 *
 *     ring.none            ring.full          ring.partial:1000
 *     ring.offset          ring.quarantine:16
 *     cache.no-ddio        cache.ddio         cache.ddio-ways:2
 *     cache.adaptive       nic.queues:4
 *
 * One ring policy takes a textual parameter instead of a count: the
 * detector-gated wrapper "ring.gated:<detector>:<inner>" (e.g.
 * "ring.gated:cadence:partial.1000"), where <inner> is a ring policy
 * with ':' spelled '.' -- see defense/gated_policy.hh.
 *
 * A Cell pairs one ring spec with one cache spec and an optional nic
 * spec ("ring.partial:1000+cache.ddio+nic.queues:4") and is the unit
 * the defense-eval grids cross: grid builders are data-driven lists of
 * cells, campaign cells are named by Cell::name(), and that name
 * round-trips through parseCell(). The nic part is omitted from the
 * name at the default queue count (nic::kDefaultQueues), so
 * single-queue cell names are unchanged from the single-ring model.
 * Built-in policies are registered by the Registry constructor;
 * experiments add their own with addRing()/addCache() (see
 * src/defense/README.md).
 */

#ifndef PKTCHASE_DEFENSE_REGISTRY_HH
#define PKTCHASE_DEFENSE_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/injection_policy.hh"
#include "nic/buffer_policy.hh"

namespace pktchase::defense
{

/** A parsed "<domain>.<policy>[:<param>]" spec. */
struct Spec
{
    std::string domain;       ///< "ring", "cache", or "nic".
    std::string policy;       ///< e.g. "partial", "ddio-ways", "queues".
    bool hasParam = false;
    std::uint64_t param = 0;  ///< Meaningful only when hasParam.

    /**
     * Raw textual parameter ("<detector>:<inner>"); non-empty only
     * for the "ring.gated" production, whose parameter is not a
     * count.
     */
    std::string text;
};

/**
 * Parse @p text into a Spec; fatal() on malformed syntax (missing
 * domain, unknown domain, empty policy, non-numeric parameter).
 * Whether the policy name exists is the Registry's concern.
 */
Spec parseSpec(const std::string &text);

/** Non-fatal syntax check (does not consult the registry). */
bool isSpecSyntax(const std::string &text);

/** Factory signatures: build a policy instance from its parsed spec. */
using RingFactory =
    std::function<std::unique_ptr<nic::BufferPolicy>(const Spec &)>;
using CacheFactory =
    std::function<std::unique_ptr<cache::InjectionPolicy>(const Spec &)>;

/**
 * Process-wide registry mapping spec strings to policy factories.
 */
class Registry
{
  public:
    /** The process-wide instance (built-ins pre-registered). */
    static Registry &instance();

    /**
     * Register a ring policy under "ring.<policy>". Re-registering a
     * name replaces the previous entry (handy in tests).
     *
     * @param takes_param Whether "<spec>:<param>" is accepted.
     */
    void addRing(const std::string &policy,
                 const std::string &description, bool takes_param,
                 RingFactory factory);

    /** Register a cache policy under "cache.<policy>". */
    void addCache(const std::string &policy,
                  const std::string &description, bool takes_param,
                  CacheFactory factory);

    /** Instantiate the ring policy named by @p spec; fatal if unknown. */
    std::unique_ptr<nic::BufferPolicy>
    makeRing(const std::string &spec) const;

    /** Instantiate the cache policy named by @p spec; fatal if unknown. */
    std::unique_ptr<cache::InjectionPolicy>
    makeCache(const std::string &spec) const;

    /**
     * Whether @p spec is well-formed and names a registered policy
     * with a parameter its factory accepts: false for exactly the
     * specs makeRing()/makeCache() reject.
     */
    bool contains(const std::string &spec) const;

    /** Registered policy names of @p domain ("ring.none", ...), sorted. */
    std::vector<std::string> names(const std::string &domain) const;

    /** One-line description of the policy @p spec names; fatal if unknown. */
    std::string description(const std::string &spec) const;

  private:
    Registry();  // Registers the built-in policies.

    struct RingEntry
    {
        std::string policy;
        std::string description;
        bool takesParam;
        RingFactory factory;
    };
    struct CacheEntry
    {
        std::string policy;
        std::string description;
        bool takesParam;
        CacheFactory factory;
    };

    void checkParam(const Spec &spec, bool takes_param) const;

    std::vector<RingEntry> ring_;
    std::vector<CacheEntry> cache_;
};

/** Convenience: Registry::instance().makeRing(spec). */
std::unique_ptr<nic::BufferPolicy>
makeRingPolicy(const std::string &spec);

/** Convenience: Registry::instance().makeCache(spec). */
std::unique_ptr<cache::InjectionPolicy>
makeCachePolicy(const std::string &spec);

/**
 * Canonical form of @p spec: instantiate the policy and return its
 * name(), so defaults are made explicit ("ring.partial" becomes
 * "ring.partial:1000"). Fatal on unknown specs.
 */
std::string canonicalSpec(const std::string &spec);

/**
 * Queue count named by a "nic.queues[:<N>]" spec; the empty string
 * means the default (nic::kDefaultQueues), as does an omitted
 * parameter. Fatal on any other policy, a zero count, or a count the
 * steering table cannot hold.
 */
std::size_t nicQueues(const std::string &spec);

/** Canonical nic spec for a queue count, "nic.queues:<N>". */
std::string nicSpecOf(std::size_t queues);

/**
 * One defense cell: a software ring defense crossed with a cache-side
 * injection policy, at a NIC queue count. The unit the evaluation
 * grids enumerate.
 */
struct Cell
{
    std::string ring = "ring.none";
    std::string cache = "cache.ddio";

    /** NIC geometry; "" means the default single-queue NIC. */
    std::string nic = "";

    /** Receive queue count this cell runs at. */
    std::size_t queues() const { return nicQueues(nic); }

    /**
     * Canonical cell name: "ring.none+cache.ddio", with
     * "+nic.queues:<N>" appended only at non-default queue counts so
     * single-queue names match the single-ring model's.
     */
    std::string name() const;
};

/**
 * Parse "<ring spec>+<cache spec>[+<nic spec>]" (canonical Cell
 * order); fatal on error.
 */
Cell parseCell(const std::string &text);

} // namespace pktchase::defense

#endif // PKTCHASE_DEFENSE_REGISTRY_HH
