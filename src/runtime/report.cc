#include "report.hh"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <unordered_set>

#include "obs/manifest.hh"
#include "obs/profile.hh"
#include "sim/json.hh"

namespace pktchase::runtime
{

namespace
{

/** One row-tagged cell of a report. */
struct Row
{
    std::size_t index = 0;  ///< Full-grid index.
    std::uint64_t seed = 0; ///< Must be splitSeed(campaign seed, index).
    std::string name;
    sim::BenchReport::Metrics metrics;
};

/**
 * A campaign or profile report in memory: what the emit path builds
 * from results, what the parser reads back from a shard file, and
 * what serialize() writes.
 */
struct Report
{
    std::string path;     ///< Source file; parsed reports only.
    bool profile = false; ///< bench "profile" vs "campaign".
    std::string grid;
    std::uint64_t campaignSeed = 0;
    std::uint64_t gridSize = 0;
    std::uint64_t shardIndex = 0;
    std::uint64_t shardCount = 1;
    obs::RunManifest manifest;
    std::string clock;        ///< Profile reports only.
    double traceDropped = 0;  ///< Profile reports only.
    /** Per-thread trace drops, emitted after the total. Only a live
     *  run knows them; a merge drops them. */
    sim::BenchReport::Metrics threadDrops;
    std::vector<Row> rows;
};

/** The shard-report seed spelling BenchReport writes, "0x" and 16
 *  lowercase hex digits, and nothing else. */
bool
parseHexU64(const std::string &text, std::uint64_t &out)
{
    if (text.size() != 18 || text.compare(0, 2, "0x") != 0 ||
        text.find_first_not_of("0123456789abcdef", 2) != std::string::npos)
        return false;
    out = std::strtoull(text.c_str() + 2, nullptr, 16);
    return true;
}

/** A hexfloat metric that parses completely to a finite double. */
bool
parseHexDouble(const std::string &text, double &out)
{
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size() && std::isfinite(out);
}

/** 2^53: every integer up to it is exact in a double. */
constexpr double kMaxExactInteger = 9007199254740992.0;

/** A JSON number that is an integer in [0, @p max]. */
bool
isWholeNumber(const sim::JsonValue &v, double max)
{
    return v.kind == sim::JsonValue::Number && v.num >= 0 &&
           v.num <= max && v.num == std::floor(v.num);
}

/** Read one required decimal-string meta into @p out. */
bool
readMetaU64(const sim::JsonValue &root, const std::string &key,
            const std::string &what, std::uint64_t &out,
            std::string &err)
{
    const sim::JsonValue *v =
        root.require(key, sim::JsonValue::String, what, err);
    if (!v)
        return false;
    if (!sim::parseDecimalU64(v->str, out)) {
        err = what + ": \"" + key + "\" is not an unsigned integer";
        return false;
    }
    return true;
}

/** Id-indexed PhaseStats as name-sorted cell metrics; zero-count
 *  phases skipped. */
sim::BenchReport::Metrics
phaseMetrics(const obs::ProfileDelta &profile)
{
    std::vector<std::pair<std::string, const obs::PhaseStats *>> named;
    for (std::size_t id = 0; id < profile.size(); ++id) {
        if (!profile[id].empty())
            named.emplace_back(obs::phaseName(id), &profile[id]);
    }
    std::sort(named.begin(), named.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    sim::BenchReport::Metrics out;
    for (const auto &np : named) {
        const std::string &phase = np.first;
        const obs::PhaseStats &s = *np.second;
        out.emplace_back(phase + ".count", static_cast<double>(s.count));
        out.emplace_back(phase + ".total_ns",
                         static_cast<double>(s.totalNs));
        out.emplace_back(phase + ".self_ns",
                         static_cast<double>(s.selfNs));
        out.emplace_back(phase + ".min_ns", static_cast<double>(s.minNs));
        out.emplace_back(phase + ".max_ns", static_cast<double>(s.maxNs));
        for (std::size_t b = 0; b < obs::kProfileHistBuckets; ++b) {
            if (s.hist[b] > 0)
                out.emplace_back(phase + ".h" + std::to_string(b),
                                 static_cast<double>(s.hist[b]));
        }
    }
    return out;
}

/** Per-phase accumulator for the aggregate table. ns counts are
 *  exact in doubles up to 2^53 (~104 days), far past any campaign. */
struct PhaseAgg
{
    double count = 0;
    double totalNs = 0;
    double selfNs = 0;
    double minNs = std::numeric_limits<double>::infinity();
    double maxNs = 0;
    double hist[obs::kProfileHistBuckets] = {};
};

/** Split a "<phase>.<field>" cell key; false for foreign keys. */
bool
splitPhaseKey(const std::string &key, std::string &phase,
              std::string &field)
{
    const std::size_t dot = key.rfind('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == key.size())
        return false;
    phase = key.substr(0, dot);
    field = key.substr(dot + 1);
    return true;
}

/** Histogram field ("h<b>") to bucket index; false otherwise. */
bool
parseHistField(const std::string &field, std::size_t &bucket)
{
    if (field.size() < 2 || field[0] != 'h' ||
        field.find_first_not_of("0123456789", 1) != std::string::npos)
        return false;
    bucket = static_cast<std::size_t>(
        std::strtoull(field.c_str() + 1, nullptr, 10));
    return bucket < obs::kProfileHistBuckets;
}

/** The aggregate phase table, a pure function of the rows. */
sim::BenchReport::Metrics
phaseTable(const std::vector<Row> &rows)
{
    // std::map: phases ordered by name, the one serialization-stable
    // order (ids are first-use registration order and may permute).
    std::map<std::string, PhaseAgg> table;
    for (const Row &row : rows) {
        for (const auto &kv : row.metrics) {
            std::string phase;
            std::string field;
            if (!splitPhaseKey(kv.first, phase, field))
                continue;
            PhaseAgg &agg = table[phase];
            std::size_t bucket = 0;
            if (field == "count")
                agg.count += kv.second;
            else if (field == "total_ns")
                agg.totalNs += kv.second;
            else if (field == "self_ns")
                agg.selfNs += kv.second;
            else if (field == "min_ns")
                agg.minNs = std::min(agg.minNs, kv.second);
            else if (field == "max_ns")
                agg.maxNs = std::max(agg.maxNs, kv.second);
            else if (parseHistField(field, bucket))
                agg.hist[bucket] += kv.second;
        }
    }

    double selfTotal = 0;
    for (const auto &kv : table)
        selfTotal += kv.second.selfNs;

    sim::BenchReport::Metrics out;
    for (const auto &kv : table) {
        const std::string &phase = kv.first;
        const PhaseAgg &agg = kv.second;
        if (agg.count <= 0)
            continue;
        out.emplace_back(phase + ".count", agg.count);
        out.emplace_back(phase + ".total_ns", agg.totalNs);
        out.emplace_back(phase + ".self_ns", agg.selfNs);
        out.emplace_back(phase + ".min_ns", agg.minNs);
        out.emplace_back(phase + ".max_ns", agg.maxNs);
        out.emplace_back(phase + ".total_sec", agg.totalNs * 1e-9);
        out.emplace_back(phase + ".self_sec", agg.selfNs * 1e-9);
        out.emplace_back(phase + ".self_share",
                         selfTotal > 0 ? agg.selfNs / selfTotal : 0.0);
        out.emplace_back(phase + ".throughput_hz",
                         agg.totalNs > 0
                             ? agg.count / (agg.totalNs * 1e-9)
                             : 0.0);
        for (std::size_t b = 0; b < obs::kProfileHistBuckets; ++b) {
            if (agg.hist[b] > 0)
                out.emplace_back(phase + ".h" + std::to_string(b),
                                 agg.hist[b]);
        }
    }
    return out;
}

/** The one writer: @p r as the artifact both formats share. */
sim::BenchReport
serialize(const Report &r)
{
    sim::BenchReport out(r.profile ? "profile" : "campaign");
    out.manifest(r.manifest);
    out.meta("grid", r.grid);
    out.meta("campaign_seed", std::to_string(r.campaignSeed));
    out.meta("grid_size", std::to_string(r.gridSize));
    out.meta("shard_index", std::to_string(r.shardIndex));
    out.meta("shard_count", std::to_string(r.shardCount));
    if (r.profile) {
        out.meta("clock", r.clock);
        for (const auto &kv : phaseTable(r.rows))
            out.scalar(kv.first, kv.second);
        out.scalar("trace.dropped_events", r.traceDropped);
        for (const auto &kv : r.threadDrops)
            out.scalar(kv.first, kv.second);
    }
    for (const Row &row : r.rows)
        out.cell(row.index, row.seed, row.name, row.metrics);
    return out;
}

/** The emit path: identity metas and one row per result, whose
 *  metrics are the phase profile for a profile report. */
Report
fromResults(bool profile, const std::string &gridName,
            std::uint64_t campaignSeed, std::size_t gridSize,
            const ShardSpec &shard,
            const std::vector<ScenarioResult> &results)
{
    Report r;
    r.profile = profile;
    r.grid = gridName;
    r.campaignSeed = campaignSeed;
    r.gridSize = gridSize;
    r.shardIndex = shard.index;
    r.shardCount = shard.count;
    r.rows.reserve(results.size());
    for (const ScenarioResult &res : results) {
        Row row;
        row.index = res.index;
        row.seed = splitSeed(campaignSeed, res.index);
        row.name = res.name;
        row.metrics = profile ? phaseMetrics(res.profile) : res.metrics;
        r.rows.push_back(std::move(row));
    }
    return r;
}

/** Parse and structurally validate one shard file. */
bool
parseReport(const std::string &path, Report &out, std::string &err)
{
    sim::JsonValue root;
    if (!sim::parseJsonFile(path, root, err))
        return false;
    if (root.kind != sim::JsonValue::Object) {
        err = path + ": not a JSON object";
        return false;
    }
    out.path = path;

    const sim::JsonValue *bench =
        root.require("bench", sim::JsonValue::String, path, err);
    if (!bench)
        return false;
    if (bench->str != "campaign" && bench->str != "profile") {
        err = path + ": not a mergeable shard report (bench=\"" +
              bench->str + "\")";
        return false;
    }
    out.profile = bench->str == "profile";

    // Provenance: reports written before the manifest era parse as
    // all-"unknown" (two unknowns still compare equal in the merge).
    out.manifest.gitSha = "unknown";
    out.manifest.compiler = "unknown";
    out.manifest.buildFlags = "unknown";
    if (const sim::JsonValue *man = root.find("manifest")) {
        if (man->kind != sim::JsonValue::Object) {
            err = path + ": \"manifest\" is not an object";
            return false;
        }
        auto field = [&](const char *key, std::string &into) {
            if (const sim::JsonValue *v = man->find(key)) {
                if (v->kind == sim::JsonValue::String)
                    into = v->str;
            }
        };
        field("git_sha", out.manifest.gitSha);
        field("compiler", out.manifest.compiler);
        field("build_flags", out.manifest.buildFlags);
        field("hostname", out.manifest.hostname);
        if (const sim::JsonValue *v = man->find("threads")) {
            if (!isWholeNumber(*v, std::numeric_limits<unsigned>::max())) {
                err = path + ": manifest \"threads\" is not a "
                             "non-negative integer";
                return false;
            }
            out.manifest.threads = static_cast<unsigned>(v->num);
        }
    }

    const sim::JsonValue *grid =
        root.require("grid", sim::JsonValue::String, path, err);
    if (!grid)
        return false;
    out.grid = grid->str;

    if (out.profile) {
        const sim::JsonValue *clock =
            root.require("clock", sim::JsonValue::String, path, err);
        if (!clock)
            return false;
        out.clock = clock->str;
        if (const sim::JsonValue *d = root.find("trace.dropped_events")) {
            if (!isWholeNumber(*d, kMaxExactInteger)) {
                err = path + ": \"trace.dropped_events\" is not a "
                             "non-negative integer";
                return false;
            }
            out.traceDropped = d->num;
        }
    }

    if (!readMetaU64(root, "campaign_seed", path, out.campaignSeed,
                     err) ||
        !readMetaU64(root, "grid_size", path, out.gridSize, err) ||
        !readMetaU64(root, "shard_index", path, out.shardIndex, err) ||
        !readMetaU64(root, "shard_count", path, out.shardCount, err))
        return false;
    if (out.shardCount == 0 || out.shardIndex >= out.shardCount) {
        err = path + ": invalid shard spec " +
              std::to_string(out.shardIndex) + "/" +
              std::to_string(out.shardCount);
        return false;
    }

    const sim::JsonValue *cells =
        root.require("cells", sim::JsonValue::Array, path, err);
    if (!cells)
        return false;
    for (const sim::JsonValue &cell : cells->arr) {
        if (cell.kind != sim::JsonValue::Object) {
            err = path + ": cell is not an object";
            return false;
        }
        const sim::JsonValue *index =
            cell.require("index", sim::JsonValue::Number, path, err);
        const sim::JsonValue *seed =
            index ? cell.require("seed", sim::JsonValue::String, path,
                                 err)
                  : nullptr;
        const sim::JsonValue *name =
            seed ? cell.require("name", sim::JsonValue::String, path,
                                err)
                 : nullptr;
        const sim::JsonValue *hex =
            name ? cell.require("hex", sim::JsonValue::Object, path,
                                err)
                 : nullptr;
        if (!hex)
            return false;

        if (!isWholeNumber(*index, kMaxExactInteger)) {
            char text[32];
            std::snprintf(text, sizeof(text), "%.17g", index->num);
            err = path + ": cell index " + text +
                  " is not a non-negative integer";
            return false;
        }
        Row row;
        row.index = static_cast<std::size_t>(index->num);
        row.name = name->str;
        if (!parseHexU64(seed->str, row.seed)) {
            err = path + ": cell " + std::to_string(row.index) +
                  " has a malformed seed \"" + seed->str + "\"";
            return false;
        }
        // The hex map round-trips every metric bit-exactly; the
        // decimal map is only for human readers and tooling.
        for (const auto &kv : hex->obj) {
            if (kv.second.kind != sim::JsonValue::String) {
                err = path + ": hex metric \"" + kv.first +
                      "\" is not a string";
                return false;
            }
            double value = 0;
            if (!parseHexDouble(kv.second.str, value)) {
                err = path + ": hex metric \"" + kv.first + "\" value \"" +
                      kv.second.str + "\" is not a finite number";
                return false;
            }
            row.metrics.emplace_back(kv.first, value);
        }
        out.rows.push_back(std::move(row));
    }
    return true;
}

} // namespace

bool
parseShardSpec(const std::string &text, ShardSpec &out)
{
    const std::size_t slash = text.find('/');
    if (slash == std::string::npos)
        return false;
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    if (!sim::parseDecimalU64(text.substr(0, slash), index) ||
        !sim::parseDecimalU64(text.substr(slash + 1), count))
        return false;
    if (count == 0 || index >= count || count > 0xFFFFFFFFull)
        return false;
    out.index = static_cast<unsigned>(index);
    out.count = static_cast<unsigned>(count);
    return true;
}

std::vector<std::size_t>
shardIndices(std::size_t gridSize, const ShardSpec &spec)
{
    std::vector<std::size_t> indices;
    for (std::size_t i = spec.index; i < gridSize; i += spec.count)
        indices.push_back(i);
    return indices;
}

sim::BenchReport
campaignReport(const std::string &gridName, std::uint64_t campaignSeed,
               std::size_t gridSize, const ShardSpec &shard,
               const std::vector<ScenarioResult> &results)
{
    Report r = fromResults(false, gridName, campaignSeed, gridSize, shard,
                           results);
    // The hostname-free build manifest: campaign metrics are
    // deterministic per build, so shards produced on different
    // machines from the same commit must still merge byte-identically.
    r.manifest = obs::RunManifest::build();
    return serialize(r);
}

sim::BenchReport
profileReport(const std::string &gridName, std::uint64_t campaignSeed,
              std::size_t gridSize, const ShardSpec &shard,
              unsigned threads, const std::string &clockTag,
              const std::vector<ScenarioResult> &results)
{
    Report r = fromResults(true, gridName, campaignSeed, gridSize, shard,
                           results);
    r.manifest = obs::RunManifest::host(threads);
    r.clock = clockTag;
    // Trace saturation is a report field, not just a stderr line.
    if (const obs::ProfileSession *t = obs::ProfileSession::active()) {
        r.traceDropped = static_cast<double>(t->droppedEvents());
        for (const auto &td : t->perThreadDrops()) {
            r.threadDrops.emplace_back(
                "trace.dropped.t" + std::to_string(td.tid),
                static_cast<double>(td.dropped));
        }
    }
    return serialize(r);
}

std::string
mergeShardReports(const std::vector<std::string> &inputs,
                  const std::string &outPath)
{
    if (inputs.empty())
        return "no shard files given";

    std::vector<Report> shards(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::string err;
        if (!parseReport(inputs[i], shards[i], err))
            return err;
    }

    // Every shard must describe the same campaign.
    const Report &first = shards[0];
    for (const Report &s : shards) {
        if (s.grid != first.grid)
            return s.path + ": grid \"" + s.grid +
                   "\" does not match \"" + first.grid + "\" of " +
                   first.path;
        if (s.campaignSeed != first.campaignSeed)
            return s.path + ": campaign seed " +
                   std::to_string(s.campaignSeed) +
                   " does not match seed " +
                   std::to_string(first.campaignSeed) + " of " +
                   first.path;
        if (s.gridSize != first.gridSize)
            return s.path + ": grid size " +
                   std::to_string(s.gridSize) + " does not match " +
                   std::to_string(first.gridSize) + " of " + first.path;
        if (s.shardCount != first.shardCount)
            return s.path + ": shard count " +
                   std::to_string(s.shardCount) + " does not match " +
                   std::to_string(first.shardCount) + " of " +
                   first.path;
        if (s.profile != first.profile)
            return s.path + ": mixes bench types (\"" +
                   std::string(s.profile ? "profile" : "campaign") +
                   "\" vs \"" +
                   std::string(first.profile ? "profile" : "campaign") +
                   "\" of " + first.path + ")";
        // Provenance check: shards of one merge must come from the
        // same build -- a sha mismatch means someone is merging
        // artifacts of different commits.
        if (s.manifest.gitSha != first.manifest.gitSha)
            return s.path + ": git sha " + s.manifest.gitSha +
                   " does not match " + first.manifest.gitSha + " of " +
                   first.path;
        if (s.profile) {
            if (s.clock != first.clock)
                return s.path + ": clock \"" + s.clock +
                       "\" does not match \"" + first.clock +
                       "\" of " + first.path;
            // Profile numbers are host-bound, so a merged profile is
            // only meaningful for shards of one build on one host.
            if (s.manifest.compiler != first.manifest.compiler ||
                s.manifest.buildFlags != first.manifest.buildFlags ||
                s.manifest.hostname != first.manifest.hostname ||
                s.manifest.threads != first.manifest.threads)
                return s.path + ": manifest does not match " +
                       first.path +
                       " (profile shards must share one build, host, "
                       "and thread count)";
        }
    }

    // The shard set must be exactly {0, ..., count-1}, once each.
    if (shards.size() != first.shardCount)
        return "incomplete shard set: " +
               std::to_string(shards.size()) + " file(s) for " +
               std::to_string(first.shardCount) + " shards";
    std::vector<const Report *> byIndex(shards.size(), nullptr);
    for (const Report &s : shards) {
        const Report *&slot = byIndex[s.shardIndex];
        if (slot)
            return "overlapping shards: " + slot->path + " and " +
                   s.path + " both claim shard " +
                   std::to_string(s.shardIndex) + "/" +
                   std::to_string(s.shardCount);
        slot = &s;
    }

    // Rows: in-slice, unique, and seed-consistent. Nothing here is
    // sized by the claimed grid size, which a hostile file controls.
    const std::uint64_t gridSize = first.gridSize;
    std::vector<Row> rows;
    std::unordered_set<std::size_t> seen;
    for (Report &s : shards) {
        for (Row &r : s.rows) {
            if (r.index >= gridSize)
                return s.path + ": cell index " +
                       std::to_string(r.index) +
                       " is outside the " + std::to_string(gridSize) +
                       "-cell grid";
            if (r.index % s.shardCount != s.shardIndex)
                return s.path + ": cell " + std::to_string(r.index) +
                       " does not belong to shard " +
                       std::to_string(s.shardIndex) + "/" +
                       std::to_string(s.shardCount);
            if (!seen.insert(r.index).second)
                return s.path + ": duplicate cell " +
                       std::to_string(r.index);
            const std::uint64_t expected =
                splitSeed(first.campaignSeed, r.index);
            if (r.seed != expected) {
                char want[32];
                char got[32];
                std::snprintf(want, sizeof(want), "0x%016" PRIx64,
                              expected);
                std::snprintf(got, sizeof(got), "0x%016" PRIx64,
                              r.seed);
                return s.path + ": cell " + std::to_string(r.index) +
                       " seed " + got + " does not match " + want +
                       " = splitSeed(campaign seed, index) -- shard "
                       "was run with different seeding";
            }
            rows.push_back(std::move(r));
        }
    }
    // The rows are unique and inside the grid, so the set is complete
    // exactly when it holds grid_size of them; otherwise name the
    // first gap and the shard whose slice should have held it.
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.index < b.index; });
    if (rows.size() < gridSize) {
        std::size_t gap = 0;
        while (gap < rows.size() && rows[gap].index == gap)
            ++gap;
        const std::uint64_t owner = gap % first.shardCount;
        return byIndex[owner]->path + ": missing cell " +
               std::to_string(gap) + " (shard " + std::to_string(owner) +
               "/" + std::to_string(first.shardCount) +
               " ran an incomplete slice)";
    }

    // Re-emit as the unsharded (0/1) form -- byte-identical to what a
    // single-process --report / --profile run writes. The manifest is
    // the inputs' (which the checks above proved consistent), not the
    // merging host's.
    Report merged = std::move(shards[0]);
    for (std::size_t i = 1; i < shards.size(); ++i)
        merged.traceDropped += shards[i].traceDropped;
    merged.shardIndex = 0;
    merged.shardCount = 1;
    merged.rows = std::move(rows);
    if (!serialize(merged).write(outPath))
        return "cannot write " + outPath;
    return "";
}

} // namespace pktchase::runtime
