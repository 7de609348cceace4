/**
 * @file
 * Defense spec strings: the built-in policies they name, the parser
 * that checks them, and the factories that build what they name.
 *
 * A spec is "<domain>.<policy>[:<count>]" where domain is "ring" (a
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
 * "ring.gated:cadence:partial.1000"), where <inner> is any other ring
 * policy with ':' spelled '.' -- see defense/gated_policy.hh.
 *
 * The built-in policies are a closed set: one table in registry.cc
 * lists each with its description, the name of its count and the
 * largest count it takes. One non-fatal parser checks every spec
 * against that table. contains() is its verdict, and every function
 * here that fails on a spec prints the parser's one-line reason.
 *
 * A Cell pairs one ring spec with one cache spec and an optional nic
 * spec ("ring.partial:1000+cache.ddio+nic.queues:4") and is the unit
 * the defense-eval grids cross: grid builders are data-driven lists of
 * cells, campaign cells are named by Cell::name(), and that name
 * round-trips through parseCell(). The nic part is omitted from the
 * name at the default queue count (nic::kDefaultQueues), so
 * single-queue cell names are unchanged from the single-ring model.
 */

#ifndef PKTCHASE_DEFENSE_REGISTRY_HH
#define PKTCHASE_DEFENSE_REGISTRY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/injection_policy.hh"
#include "nic/buffer_policy.hh"

namespace pktchase::defense
{

/** A parsed "<domain>.<policy>[:<count>]" spec. */
struct Spec
{
    std::string domain;       ///< "ring", "cache", or "nic".
    std::string policy;       ///< e.g. "partial", "ddio-ways", "queues".

    /**
     * Whether a count follows the policy. Always false for
     * "ring.gated", whose parameter is not a count.
     */
    bool hasParam = false;
    std::uint64_t param = 0;  ///< Meaningful only when hasParam.
};

/** Parse @p text; fatal with the reason if contains() rejects it. */
Spec parseSpec(const std::string &text);

/**
 * Whether @p spec names a built-in policy with a parameter it takes:
 * false for exactly the specs the functions below fail on.
 */
bool contains(const std::string &spec);

/** Build the ring policy @p spec names; fatal unless it is one. */
std::unique_ptr<nic::BufferPolicy>
makeRingPolicy(const std::string &spec);

/** Build the cache policy @p spec names; fatal unless it is one. */
std::unique_ptr<cache::InjectionPolicy>
makeCachePolicy(const std::string &spec);

/**
 * Canonical form of @p spec: build the policy and return its name(),
 * so defaults are made explicit ("ring.partial" becomes
 * "ring.partial:1000"). Fatal on specs contains() rejects.
 */
std::string canonicalSpec(const std::string &spec);

/**
 * Queue count named by a "nic.queues[:<N>]" spec; the empty string
 * means the default (nic::kDefaultQueues), as does an omitted
 * parameter. Fatal on any other spec, a zero count, or a count the
 * steering table cannot hold.
 */
std::size_t nicQueues(const std::string &spec);

/** Canonical nic spec for a queue count, "nic.queues:<N>". */
std::string nicSpecOf(std::size_t queues);

/**
 * Built-in policy names of @p domain ("ring.none", ...), sorted;
 * fatal on an unknown domain.
 */
std::vector<std::string> names(const std::string &domain);

/**
 * One-line description of the policy @p spec names: one of names(),
 * or any spec contains() accepts. Fatal on anything else.
 */
std::string description(const std::string &spec);

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
 * order); fatal unless each part is a spec of its domain that
 * contains() accepts.
 */
Cell parseCell(const std::string &text);

} // namespace pktchase::defense

#endif // PKTCHASE_DEFENSE_REGISTRY_HH
