#include "attack_eval.hh"

#include <cstdio>

#include "channel/capacity.hh"
#include "runtime/registry.hh"
#include "testbed/testbed.hh"

namespace pktchase::workload
{

namespace
{

/** The paper's five-site closed world (and its signature seed). */
fingerprint::WebsiteDb
fig20Db()
{
    return fingerprint::WebsiteDb(
        {"facebook.com", "twitter.com", "google.com", "amazon.com",
         "apple.com"},
        42);
}

/** "fig13/160kbps" (+ "+nic.queues:N" off the default queue count). */
std::string
fig13CellName(double bandwidth_bps, std::size_t queues)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "fig13/%.0fkbps",
                  bandwidth_bps / 1000.0);
    std::string name(buf);
    if (queues != nic::kDefaultQueues)
        name += "+" + defense::nicSpecOf(queues);
    return name;
}

} // namespace

std::vector<std::size_t>
attackQueueCounts()
{
    return {nic::kDefaultQueues, 4};
}

fingerprint::WebsiteDb
fig20Database()
{
    return fig20Db();
}

std::vector<defense::Cell>
fig20Cells()
{
    const defense::Cell bases[] = {
        {"ring.none", "cache.ddio"},         // vulnerable baseline
        {"ring.none", "cache.no-ddio"},      // the paper's 86.5% axis
        {"ring.partial:1000", "cache.ddio"}, // the paper's sweet spot
        {"ring.full", "cache.ddio"},         // costliest ring defense
        {"ring.none", "cache.adaptive"},     // cache-side defense
    };
    std::vector<defense::Cell> cells;
    for (std::size_t q : attackQueueCounts()) {
        for (const defense::Cell &base : bases) {
            defense::Cell cell = base;
            cell.nic = defense::nicSpecOf(q);
            cells.push_back(cell);
        }
    }
    return cells;
}

fingerprint::FingerprintConfig
fig20Config(std::uint64_t seed)
{
    fingerprint::FingerprintConfig cfg;
    cfg.trainVisits = 10;
    cfg.trials = 20;
    cfg.sequenceErrorRate = 0.01;
    cfg.seed = seed;
    return cfg;
}

fingerprint::FingerprintResult
fig20Cell(const defense::Cell &cell, std::uint64_t seed)
{
    // The attack testbed, not makeDefenseConfig(): the spy needs its
    // eviction-set pool and the real timing-noise model.
    testbed::TestbedConfig tcfg;
    tcfg.ringDefense = cell.ring;
    tcfg.cacheDefense = cell.cache;
    tcfg.nicSpec = cell.nic;
    testbed::Testbed tb(tcfg);
    const fingerprint::WebsiteDb db = fig20Db();
    fingerprint::FingerprintAttack atk(tb, db, fig20Config(seed));
    return atk.evaluate();
}

std::vector<runtime::Scenario>
fig11CovertGrid(std::size_t symbols)
{
    const std::size_t chunks = symbols >= 4 ? 4 : 1;
    std::vector<runtime::Scenario> grid;
    for (channel::Scheme scheme :
         {channel::Scheme::Binary, channel::Scheme::Ternary}) {
        for (double khz : {7.0, 14.0, 28.0}) {
            const char *enc =
                scheme == channel::Scheme::Binary ? "binary" : "ternary";
            char name[64];
            std::snprintf(name, sizeof(name), "fig11/%s/%.0fkhz", enc,
                          khz);
            runtime::Scenario sc;
            sc.name = name;
            sc.tasks = chunks;
            // Task t transmits LFSR stream positions
            // [t*per, t*per + count): the symbol stream is a pure
            // function of position, so chunked tasks cover exactly
            // the monolithic run's symbols.
            sc.runTask = [scheme, khz, symbols,
                          chunks](runtime::TaskContext &t) {
                const std::size_t per = symbols / chunks;
                const std::size_t offset = t.task * per;
                const std::size_t count = (t.task + 1 == chunks)
                    ? symbols - offset : per;
                testbed::Testbed tb(testbed::TestbedConfig{});
                channel::ChannelRunConfig cfg;
                cfg.scheme = scheme;
                cfg.probeRateHz = khz * 1000.0;
                cfg.nSymbols = count;
                cfg.symbolOffset = offset;
                // Background cache noise from unrelated processes:
                // what makes long probe intervals error-prone
                // (Sec. IV-b). The axis salt pins chunk t's noise and
                // jitter streams across every cell, so cells are
                // still compared under identical interference.
                cfg.cacheNoiseHz = 20000.0;
                cfg.cacheNoiseBatch = 48;
                cfg.seed = runtime::splitSeed(
                    runtime::splitSeed(t.campaignSeed,
                                       runtime::axisSalt(0x11)),
                    t.task);
                const channel::ChannelMeasurement m =
                    channel::runCovertChannel(tb, cfg);
                runtime::ScenarioResult r;
                r.set("sent", static_cast<double>(m.sent));
                r.set("received", static_cast<double>(m.received));
                r.set("edit_distance",
                      static_cast<double>(m.editDistance));
                // Per-chunk on-wire span with the same end-correction
                // the monolithic run applies (n symbols span n-1
                // inter-arrival gaps).
                double span = 0.0;
                if (m.elapsed > 0 && m.sent > 1) {
                    span = cyclesToSeconds(m.elapsed) *
                        static_cast<double>(m.sent) /
                        static_cast<double>(m.sent - 1);
                }
                r.set("span_seconds", span);
                r.set("probe_rounds",
                      static_cast<double>(m.probeRounds));
                return r;
            };
            sc.fold = [scheme](
                const std::vector<runtime::ScenarioResult> &parts) {
                double sent = 0, received = 0, edit = 0;
                double span = 0, rounds = 0;
                for (const runtime::ScenarioResult &p : parts) {
                    sent += p.value("sent");
                    received += p.value("received");
                    edit += p.value("edit_distance");
                    span += p.value("span_seconds");
                    rounds += p.value("probe_rounds");
                }
                runtime::ScenarioResult r;
                r.set("bandwidth_bps", span > 0.0
                    ? channel::bitsPerSymbol(scheme) * sent / span
                    : 0.0);
                r.set("error_rate", sent > 0.0 ? edit / sent : 0.0);
                r.set("received", received);
                r.set("probe_rounds", rounds);
                return r;
            };
            grid.push_back(std::move(sc));
        }
    }
    return grid;
}

std::vector<runtime::Scenario>
fig13ChannelGrid(std::size_t symbols)
{
    const std::size_t chunks = symbols >= 4 ? 4 : 1;
    std::vector<runtime::Scenario> grid;
    for (std::size_t queues : attackQueueCounts()) {
        for (double bps : {80000.0, 320000.0, 640000.0}) {
            const std::string nic_spec = defense::nicSpecOf(queues);
            runtime::Scenario sc;
            sc.name = fig13CellName(bps, queues);
            sc.tasks = chunks;
            sc.runTask = [bps, nic_spec, symbols,
                          chunks](runtime::TaskContext &t) {
                const std::size_t per = symbols / chunks;
                const std::size_t offset = t.task * per;
                const std::size_t count = (t.task + 1 == chunks)
                    ? symbols - offset : per;
                testbed::TestbedConfig tcfg;
                tcfg.nicSpec = nic_spec;
                testbed::Testbed tb(tcfg);
                channel::ChasingChannelConfig cfg;
                cfg.targetBandwidthBps = bps;
                cfg.nSymbols = count;
                cfg.symbolOffset = offset;
                cfg.seed = runtime::splitSeed(
                    runtime::splitSeed(t.campaignSeed,
                                       runtime::axisSalt(0x13)),
                    t.task);
                const channel::ChannelMeasurement m =
                    channel::runChasingChannel(tb, cfg);
                // Raw alignment counts, not rates: the fold
                // re-derives the paper's error accounting from the
                // summed counts, so chunking loses no precision.
                runtime::ScenarioResult r;
                r.set("sent", static_cast<double>(m.sent));
                r.set("received", static_cast<double>(m.received));
                r.set("matches",
                      static_cast<double>(m.editMatches));
                r.set("substitutions",
                      static_cast<double>(m.editSubstitutions));
                r.set("deletions",
                      static_cast<double>(m.editDeletions));
                r.set("probe_rounds",
                      static_cast<double>(m.probeRounds));
                return r;
            };
            sc.fold = [](
                const std::vector<runtime::ScenarioResult> &parts) {
                double sent = 0, received = 0, matches = 0;
                double subs = 0, dels = 0, rounds = 0;
                for (const runtime::ScenarioResult &p : parts) {
                    sent += p.value("sent");
                    received += p.value("received");
                    matches += p.value("matches");
                    subs += p.value("substitutions");
                    dels += p.value("deletions");
                    rounds += p.value("probe_rounds");
                }
                runtime::ScenarioResult r;
                const double synced = matches + subs;
                r.set("error_rate", synced > 0.0 ? subs / synced : 1.0);
                r.set("out_of_sync_rate",
                      sent > 0.0 ? dels / sent : 0.0);
                r.set("received", received);
                r.set("probe_rounds", rounds);
                return r;
            };
            grid.push_back(std::move(sc));
        }
    }
    return grid;
}

std::vector<runtime::Scenario>
fig20FingerprintGrid()
{
    std::vector<runtime::Scenario> grid;
    for (const defense::Cell &cell : fig20Cells()) {
        runtime::Scenario sc;
        sc.name = "fig20/" + cell.name();
        // One task per classification trial: the heaviest cells stop
        // bounding the campaign makespan, and the last unit a worker
        // claims costs one trial, not twenty.
        sc.tasks = fig20Config(0).trials;
        sc.runTask = [cell](runtime::TaskContext &t) {
            const std::uint64_t axis = runtime::splitSeed(
                t.campaignSeed, runtime::axisSalt(0x20));
            testbed::TestbedConfig tcfg;
            tcfg.ringDefense = cell.ring;
            tcfg.cacheDefense = cell.cache;
            tcfg.nicSpec = cell.nic;
            testbed::Testbed tb(tcfg);
            const fingerprint::WebsiteDb db = fig20Db();
            fingerprint::FingerprintAttack atk(tb, db,
                                               fig20Config(axis));
            // Training is pure template-building from ground truth
            // (no simulation), so repeating it per task is cheap, and
            // the axis-pinned stream gives every task -- and every
            // defense cell -- identical templates.
            Rng train_rng(axis);
            atk.train(train_rng);
            // The trial stream is split per task off the shared axis
            // (not off the cell seed), so every defense cell still
            // fingerprints the same page loads.
            Rng trial_rng(runtime::splitSeed(axis, t.task));
            const fingerprint::TrialOutcome o =
                atk.trial(t.task % db.size(), trial_rng);
            runtime::ScenarioResult r;
            r.set("site", static_cast<double>(o.site));
            r.set("predicted", static_cast<double>(o.predicted));
            r.set("probe_rounds", static_cast<double>(o.probeRounds));
            return r;
        };
        sc.fold = [](
            const std::vector<runtime::ScenarioResult> &parts) {
            double correct = 0, rounds = 0;
            for (const runtime::ScenarioResult &p : parts) {
                if (p.value("site") == p.value("predicted"))
                    correct += 1.0;
                rounds += p.value("probe_rounds");
            }
            runtime::ScenarioResult r;
            const double trials = static_cast<double>(parts.size());
            r.set("accuracy", trials > 0.0 ? correct / trials : 0.0);
            r.set("correct", correct);
            r.set("trials", trials);
            r.set("probe_rounds", rounds);
            return r;
        };
        grid.push_back(std::move(sc));
    }
    return grid;
}

void
registerAttackScenarios()
{
    auto &reg = runtime::ScenarioRegistry::instance();
    reg.add("fig11",
            "Covert-channel bandwidth/error per encoding and probe "
            "rate, under cache noise",
            [] { return fig11CovertGrid(300); });
    reg.add("fig13",
            "Packet-chasing channel error/capacity per target "
            "bandwidth and NIC queue count",
            [] { return fig13ChannelGrid(600); });
    reg.add("fig20",
            "Closed-world fingerprint accuracy per defense cell and "
            "NIC queue count",
            [] { return fig20FingerprintGrid(); });
}

} // namespace pktchase::workload
