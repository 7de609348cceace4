/**
 * @file
 * Regression guard for the server-model grids (ctest label `golden`).
 *
 * The fig16 goldens pin the defense-policy API migration: the grid
 * under the policy/registry design must reproduce byte-identical
 * metrics to the pre-refactor enum path for the paper's five cells.
 * They were captured from the enum implementation (RingDefense /
 * CacheMode / adaptivePartition) at commit 080c859 by running
 * fig16LatencyGrid(100000.0, 3000) through runtime::sweep() with
 * campaign seed 1 and printing every metric as a hexfloat. Any drift
 * there means the strategy hooks no longer sit at the exact points of
 * the receive/fill paths the enums branched on.
 *
 * The fig14, fig15 and fig16x goldens pin the rest of the server
 * model at test size: fig14ThroughputGrid(400) (three LLC geometries,
 * including the 22-way 11 MB one), a reduced fig15TrafficGrid and
 * extendedLatencyGrid(100000.0, 3000). They are whole formatReport()
 * strings captured at commit 3d789f5 through runtime::Campaign at
 * campaign seed 1, and threads=1 and threads=4 must both reproduce
 * them byte for byte.
 *
 * The fig7q, fig16q and figD2 goldens pin those three grids as the
 * scenario registry builds them, at their registered sizes: whole
 * formatReport() strings captured at commit eadbc09 through
 * `campaign <grid>` at campaign seed 1, checked at threads=1 and
 * threads=4 like the rest.
 */

#include <gtest/gtest.h>

#include "runtime/campaign.hh"
#include "runtime/registry.hh"
#include "runtime/sweep.hh"
#include "workload/defense_eval.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;
using namespace pktchase::workload;

namespace
{

constexpr double kRate = 100000.0;
constexpr std::size_t kRequests = 3000;

runtime::SweepOptions
quietSweep()
{
    runtime::SweepOptions opt;
    opt.verbose = false;
    opt.seed = 1;
    return opt;
}

const char *const kMetricKeys[9] = {
    "p50", "p90", "p99", "p99_9", "p99_99",
    "kreq_per_sec", "llc_miss_rate",
    "mem_read_blocks", "mem_write_blocks",
};

struct GoldenCell
{
    const char *name; ///< Post-refactor canonical cell name.
    double values[9]; ///< In kMetricKeys order, bit-exact.
};

// Captured from the pre-refactor enum path (see file comment).
const GoldenCell kGolden[5] = {
    {"fig16/ring.none+cache.ddio",
     {0x1.562be8bc169c2p+1, 0x1.899b79469e981p+1, 0x1.93ea25759a3b2p+1,
      0x1.962b6c83c2902p+1, 0x1.96f9d478de353p+1, 0x1.7a75e6475b42ep+6,
      0x1.2d83d0baa7ff2p-2, 0x1.d1d38p+17, 0x1.0fp+11}},
    {"fig16/ring.full+cache.ddio",
     {0x1.09459f3fffd76p+2, 0x1.1a0bb70df1194p+2, 0x1.1e0686f2794f4p+2,
      0x1.1fac76d23b3efp+2, 0x1.2082a935802e4p+2, 0x1.602d80b06b926p+6,
      0x1.2d93ff406888bp-2, 0x1.d1ec8p+17, 0x1.36ap+13}},
    {"fig16/ring.partial:1000+cache.ddio",
     {0x1.71c3f5c8478dbp+1, 0x1.a36cae16e5185p+1, 0x1.adbb5a45e0bb6p+1,
      0x1.affca15409104p+1, 0x1.b0cb094924b56p+1, 0x1.75af8551b27c1p+6,
      0x1.2d8e7ecb40abep-2, 0x1.d1e4p+17, 0x1.c32p+11}},
    {"fig16/ring.partial:10000+cache.ddio",
     {0x1.562be8bc169c2p+1, 0x1.899b79469e981p+1, 0x1.93ea25759a3b2p+1,
      0x1.962b6c83c2902p+1, 0x1.96f9d478de353p+1, 0x1.7a75e6475b42ep+6,
      0x1.2d83d0baa7ff2p-2, 0x1.d1d38p+17, 0x1.0fp+11}},
    {"fig16/ring.none+cache.adaptive",
     {0x1.5664dc63be6a1p+1, 0x1.89b38f6940561p+1, 0x1.9407c16e55965p+1,
      0x1.964846cc655c7p+1, 0x1.971883068806ep+1, 0x1.7a08ff55b35dp+6,
      0x1.2e5c53ae04f21p-2, 0x1.d322p+17, 0x1.e6p+9}},
};

const char *const kFig14Golden =
    "[0] fig14/llc20/ring.none+cache.ddio "
    "kreq_per_sec=0x1.0cd52f46b47b6p+6 "
    "llc_miss_rate=0x1.3010fda60a2ap-1 mem_read_blocks=0x1.f516p+15 "
    "mem_write_blocks=0x1.ap+7\n"
    "[1] fig14/llc20/ring.none+cache.adaptive "
    "kreq_per_sec=0x1.0cd52f46b47b6p+6 "
    "llc_miss_rate=0x1.3010fda60a2ap-1 mem_read_blocks=0x1.f516p+15 "
    "mem_write_blocks=0x1.7p+6\n"
    "[2] fig14/llc11/ring.none+cache.ddio "
    "kreq_per_sec=0x1.0c5972bfed9d3p+6 "
    "llc_miss_rate=0x1.3104ee2cc0a9fp-1 "
    "mem_read_blocks=0x1.f6a8p+15 mem_write_blocks=0x1.2cp+9\n"
    "[3] fig14/llc11/ring.none+cache.adaptive "
    "kreq_per_sec=0x1.0c5972bfed9d3p+6 "
    "llc_miss_rate=0x1.3104ee2cc0a9fp-1 "
    "mem_read_blocks=0x1.f6a8p+15 mem_write_blocks=0x1.18p+8\n"
    "[4] fig14/llc8/ring.none+cache.ddio "
    "kreq_per_sec=0x1.0c9a07f74a46dp+6 "
    "llc_miss_rate=0x1.30857fcf746ecp-1 "
    "mem_read_blocks=0x1.f5d6p+15 mem_write_blocks=0x1.2dp+9\n"
    "[5] fig14/llc8/ring.none+cache.adaptive "
    "kreq_per_sec=0x1.0c92a4e1e41e8p+6 "
    "llc_miss_rate=0x1.30941014a1b75p-1 "
    "mem_read_blocks=0x1.f5eep+15 mem_write_blocks=0x1.18p+8\n";

const char *const kFig15Golden =
    "[0] fig15/filecopy/ring.none+cache.no-ddio "
    "mem_read_blocks=0x1p+17 mem_write_blocks=0x1p+16 "
    "llc_miss_rate=0x1p+0\n"
    "[1] fig15/filecopy/ring.none+cache.ddio "
    "mem_read_blocks=0x1p+16 mem_write_blocks=0x1.0ap+15 "
    "llc_miss_rate=0x1p-1\n"
    "[2] fig15/filecopy/ring.none+cache.adaptive "
    "mem_read_blocks=0x1p+16 mem_write_blocks=0x1.53p+14 "
    "llc_miss_rate=0x1p-1\n"
    "[3] fig15/tcprecv/ring.none+cache.no-ddio "
    "mem_read_blocks=0x1.0ep+12 mem_write_blocks=0x1.f4p+11 "
    "llc_miss_rate=0x1.147ae147ae148p-2\n"
    "[4] fig15/tcprecv/ring.none+cache.ddio "
    "mem_read_blocks=0x1.4p+8 mem_write_blocks=0x1.6e8p+9 "
    "llc_miss_rate=0x1.47ae147ae147bp-6\n"
    "[5] fig15/tcprecv/ring.none+cache.adaptive "
    "mem_read_blocks=0x1.4p+8 mem_write_blocks=0x1.48p+8 "
    "llc_miss_rate=0x1.47ae147ae147bp-6\n"
    "[6] fig15/nginx/ring.none+cache.no-ddio "
    "kreq_per_sec=0x1.08314a885207dp+6 "
    "llc_miss_rate=0x1.395bb47399251p-1 "
    "mem_read_blocks=0x1.0233p+16 mem_write_blocks=0x1.9p+10\n"
    "[7] fig15/nginx/ring.none+cache.ddio "
    "kreq_per_sec=0x1.0bf7e1c644138p+6 "
    "llc_miss_rate=0x1.31c5e5c158abcp-1 "
    "mem_read_blocks=0x1.f7e6p+15 mem_write_blocks=0x1.ap+7\n"
    "[8] fig15/nginx/ring.none+cache.adaptive "
    "kreq_per_sec=0x1.0bf7e1c644138p+6 "
    "llc_miss_rate=0x1.31c5e5c158abcp-1 "
    "mem_read_blocks=0x1.f7e6p+15 mem_write_blocks=0x1.7p+6\n";

const char *const kFig16xGolden =
    "[0] fig16x/ring.offset+cache.ddio p50=0x1.563744c916175p+1 "
    "p90=0x1.89a24a1b37e2p+1 p99=0x1.93f2e26be899ep+1 "
    "p99_9=0x1.9634042d92ac5p+1 p99_99=0x1.9701caec89108p+1 "
    "kreq_per_sec=0x1.7a6cefebc223ap+6 "
    "llc_miss_rate=0x1.2d959d80fbc9ap-2 "
    "mem_read_blocks=0x1.d1efp+17 mem_write_blocks=0x1.474p+10\n"
    "[1] fig16x/ring.quarantine:16+cache.ddio "
    "p50=0x1.6c311f4936d1cp+1 p90=0x1.a239312bde708p+1 "
    "p99=0x1.aba58566a89e7p+1 p99_9=0x1.ae96e50e8e59p+1 "
    "p99_99=0x1.afc37b1f1f72cp+1 kreq_per_sec=0x1.76304ce31cc43p+6 "
    "llc_miss_rate=0x1.2d79c85d7d6c7p-2 "
    "mem_read_blocks=0x1.d1c4p+17 mem_write_blocks=0x1.488p+11\n"
    "[2] fig16x/ring.none+cache.ddio-ways:2 "
    "p50=0x1.562be8bc169c2p+1 p90=0x1.899b79469e981p+1 "
    "p99=0x1.93ea25759a3b2p+1 p99_9=0x1.962b6c83c2902p+1 "
    "p99_99=0x1.96f9d478de353p+1 kreq_per_sec=0x1.7a75e6475b42ep+6 "
    "llc_miss_rate=0x1.2d83d0baa7ff2p-2 "
    "mem_read_blocks=0x1.d1d38p+17 mem_write_blocks=0x1.0fp+11\n"
    "[3] fig16x/ring.offset+cache.ddio-ways:2 "
    "p50=0x1.563744c916175p+1 p90=0x1.89a24a1b37e2p+1 "
    "p99=0x1.93f2e26be899ep+1 p99_9=0x1.9634042d92ac5p+1 "
    "p99_99=0x1.9701caec89108p+1 kreq_per_sec=0x1.7a6cefebc223ap+6 "
    "llc_miss_rate=0x1.2d959d80fbc9ap-2 "
    "mem_read_blocks=0x1.d1efp+17 mem_write_blocks=0x1.474p+10\n"
    "[4] fig16x/ring.quarantine:16+cache.adaptive "
    "p50=0x1.6c64429935d39p+1 p90=0x1.a26493b03807p+1 "
    "p99=0x1.abb7f71820fd6p+1 p99_9=0x1.aeb28168e935p+1 "
    "p99_99=0x1.afddb2020a8f2p+1 kreq_per_sec=0x1.75c6001ad29c7p+6 "
    "llc_miss_rate=0x1.2e51f87723526p-2 "
    "mem_read_blocks=0x1.d312p+17 mem_write_blocks=0x1.17p+10\n";

const char *const kFig7qGolden =
    "[0] fig7q/nic.queues:1 queues=0x1p+0 active_combos=0x1.ap+3 "
    "candidates=0x1.ep+3 recall=0x1p+0 mean_queue_candidates=0x1.ap+3\n"
    "[1] fig7q/nic.queues:2 queues=0x1p+1 active_combos=0x1p+4 "
    "candidates=0x1p+4 recall=0x1p+0 mean_queue_candidates=0x1.bp+3\n"
    "[2] fig7q/nic.queues:4 queues=0x1p+2 active_combos=0x1p+4 "
    "candidates=0x1p+4 recall=0x1p+0 mean_queue_candidates=0x1.cp+3\n";

const char *const kFig16qGolden =
    "[0] fig16q/ring.none+cache.ddio p50=0x1.2b8832bda1e43p+1 "
    "p90=0x1.876dbed8a6aep+1 p99=0x1.9358f0de4496dp+1 "
    "p99_9=0x1.95b1d10f99421p+1 p99_99=0x1.96e432b848b4ep+1 "
    "kreq_per_sec=0x1.8995a23f2d4dcp+6 "
    "llc_miss_rate=0x1.f6953f00a6fedp-3 mem_read_blocks=0x1.02d28p+18 "
    "mem_write_blocks=0x1.6e8p+11\n"
    "[1] fig16q/ring.full+cache.ddio p50=0x1.f309154bf5aeep+1 "
    "p90=0x1.186296a701af5p+2 p99=0x1.1dbe142780981p+2 "
    "p99_9=0x1.1f786abb842e4p+2 p99_99=0x1.2072b61e1a968p+2 "
    "kreq_per_sec=0x1.77829d32e9c1p+6 "
    "llc_miss_rate=0x1.f6d9b1df623a6p-3 mem_read_blocks=0x1.02f5cp+18 "
    "mem_write_blocks=0x1.b368p+13\n"
    "[2] fig16q/ring.partial:1000+cache.ddio p50=0x1.4c246d55fd1bp+1 "
    "p90=0x1.a13ef3a8ed2e5p+1 p99=0x1.ad2a25ae8b16fp+1 "
    "p99_9=0x1.af8305dfdfc24p+1 p99_99=0x1.b0b567888f35p+1 "
    "kreq_per_sec=0x1.8995a23f2d4dcp+6 "
    "llc_miss_rate=0x1.f6be826f51f73p-3 mem_read_blocks=0x1.02e7cp+18 "
    "mem_write_blocks=0x1.4acp+12\n"
    "[3] fig16q/ring.none+cache.ddio+nic.queues:2 "
    "p50=0x1.2bb8d4329780ap+1 p90=0x1.87748fad3ff7fp+1 "
    "p99=0x1.935e2f0ba6cf9p+1 p99_9=0x1.95ba8e05e7a0ep+1 "
    "p99_99=0x1.96ebe23ff40bcp+1 kreq_per_sec=0x1.8995e5ed79726p+6 "
    "llc_miss_rate=0x1.f6a1de2b89f98p-3 mem_read_blocks=0x1.02d9p+18 "
    "mem_write_blocks=0x1.0ap+13\n"
    "[4] fig16q/ring.full+cache.ddio+nic.queues:2 "
    "p50=0x1.f31d1dc95f2c8p+1 p90=0x1.18763278be7edp+2 "
    "p99=0x1.1dcf92b13b082p+2 p99_9=0x1.1f80fe164db6dp+2 "
    "p99_99=0x1.207c6adc6c901p+2 kreq_per_sec=0x1.7786d35fb5372p+6 "
    "llc_miss_rate=0x1.f6c8b43958106p-3 mem_read_blocks=0x1.02edp+18 "
    "mem_write_blocks=0x1.b37p+13\n"
    "[5] fig16q/ring.partial:1000+cache.ddio+nic.queues:2 "
    "p50=0x1.4c246d55fd1bp+1 p90=0x1.8ac157133357cp+1 "
    "p99=0x1.9a5b60f48b372p+1 p99_9=0x1.a0cea6921f052p+1 "
    "p99_99=0x1.a13d2f8d625c8p+1 kreq_per_sec=0x1.899607c4a83f4p+6 "
    "llc_miss_rate=0x1.f6b06e70b7421p-3 mem_read_blocks=0x1.02e08p+18 "
    "mem_write_blocks=0x1.21bp+13\n"
    "[6] fig16q/ring.none+cache.ddio+nic.queues:4 "
    "p50=0x1.2b78ba4d0caafp+1 p90=0x1.876c41ccd550dp+1 "
    "p99=0x1.935572155870ep+1 p99_9=0x1.95ae5246ad1c3p+1 "
    "p99_99=0x1.96e0b3ef5c8fp+1 kreq_per_sec=0x1.8993ea5475bc6p+6 "
    "llc_miss_rate=0x1.f6ab93aefd7f3p-3 mem_read_blocks=0x1.02dep+18 "
    "mem_write_blocks=0x1.9548p+13\n"
    "[7] fig16q/ring.full+cache.ddio+nic.queues:4 "
    "p50=0x1.f2b7aa25d8d7ap+1 p90=0x1.185ab9c48b408p+2 "
    "p99=0x1.1db656587d902p+2 p99_9=0x1.1f6ece12fac6p+2 "
    "p99_99=0x1.20691975912e4p+2 kreq_per_sec=0x1.778cb8fa41002p+6 "
    "llc_miss_rate=0x1.f6b0eab749d59p-3 mem_read_blocks=0x1.02e0cp+18 "
    "mem_write_blocks=0x1.b3ep+13\n"
    "[8] fig16q/ring.partial:1000+cache.ddio+nic.queues:4 "
    "p50=0x1.2b78ba4d0caafp+1 p90=0x1.876c41ccd550dp+1 "
    "p99=0x1.935572155870ep+1 p99_9=0x1.95ae5246ad1c3p+1 "
    "p99_99=0x1.96e0b3ef5c8fp+1 kreq_per_sec=0x1.8993ea5475bc6p+6 "
    "llc_miss_rate=0x1.f6ab93aefd7f3p-3 mem_read_blocks=0x1.02dep+18 "
    "mem_write_blocks=0x1.9548p+13\n";

const char *const kFigD2Golden =
    "[0] figD2/benign/ring.none+cache.ddio p50=0x1.f49f802f58448p-6 "
    "p90=0x1.b813f2e203c9dp+1 p99=0x1.f5ad4bf78366dp+1 "
    "p99_9=0x1.fc16ca5da74d9p+1 p99_99=0x1.fd36acd6ac7c5p+1 "
    "kreq_per_sec=0x1.90e7f2d6f68dcp+6 buffers_reallocated=0x0p+0 "
    "ring_randomizations=0x0p+0 arm_transitions=0x0p+0 "
    "armed_epochs=0x0p+0\n"
    "[1] figD2/benign/ring.partial:1000+cache.ddio "
    "p50=0x1.25b2f3550a582p-3 p90=0x1.d11cd515d8c96p+1 "
    "p99=0x1.07bf4063e4f38p+2 p99_9=0x1.0af3ff96f6e6ep+2 "
    "p99_99=0x1.0b83f0d3797e4p+2 kreq_per_sec=0x1.90e7f2d6f68dcp+6 "
    "buffers_reallocated=0x1.cp+10 ring_randomizations=0x1.cp+2 "
    "arm_transitions=0x0p+0 armed_epochs=0x0p+0\n"
    "[2] figD2/benign/ring.gated:cadence:partial.1000+cache.ddio "
    "p50=0x1.f49f802f58448p-6 p90=0x1.b813f2e203c9dp+1 "
    "p99=0x1.f5ad4bf78366dp+1 p99_9=0x1.fc16ca5da74d9p+1 "
    "p99_99=0x1.fd36acd6ac7c5p+1 kreq_per_sec=0x1.90e7f2d6f68dcp+6 "
    "buffers_reallocated=0x0p+0 ring_randomizations=0x0p+0 "
    "arm_transitions=0x0p+0 armed_epochs=0x0p+0\n"
    "[3] figD2/attack/ring.none+cache.ddio "
    "accuracy=0x1.e666666666666p-1 correct=0x1.3p+4 trials=0x1.4p+4 "
    "probe_rounds=0x1.13cp+14 buffers_reallocated=0x0p+0 "
    "ring_randomizations=0x0p+0 arm_transitions=0x0p+0 "
    "armed_epochs=0x0p+0\n"
    "[4] figD2/attack/ring.partial:1000+cache.ddio "
    "accuracy=0x1.3333333333333p-1 correct=0x1.8p+3 trials=0x1.4p+4 "
    "probe_rounds=0x1.1408p+14 buffers_reallocated=0x1p+9 "
    "ring_randomizations=0x1p+1 arm_transitions=0x0p+0 "
    "armed_epochs=0x0p+0\n"
    "[5] figD2/attack/ring.gated:cadence:partial.1000+cache.ddio "
    "accuracy=0x1.3333333333333p-1 correct=0x1.8p+3 trials=0x1.4p+4 "
    "probe_rounds=0x1.1408p+14 buffers_reallocated=0x1p+8 "
    "ring_randomizations=0x1p+0 arm_transitions=0x1.ap+3 "
    "armed_epochs=0x1.2b7p+12\n";

/** The formatReport() string of @p grid at campaign seed 1. */
std::string
runGrid(const std::vector<runtime::Scenario> &grid, unsigned threads)
{
    runtime::CampaignConfig cfg;
    cfg.threads = threads;
    cfg.seed = 1;
    runtime::Campaign campaign(cfg);
    return runtime::formatReport(campaign.run(grid));
}

void
expectGolden(const std::vector<runtime::Scenario> &grid,
             const char *golden)
{
    EXPECT_EQ(runGrid(grid, 1), golden) << "threads=1";
    EXPECT_EQ(runGrid(grid, 4), golden) << "threads=4";
}

/** The grid the scenario registry builds under @p name. */
std::vector<runtime::Scenario>
registeredGrid(const std::string &name)
{
    registerDefenseScenarios();
    registerDetectionScenarios();
    return runtime::ScenarioRegistry::instance().make(name);
}

} // namespace

TEST(DefenseRegression, Fig16GridBitIdenticalToEnumPath)
{
    const auto results =
        runtime::sweep(fig16LatencyGrid(kRate, kRequests), quietSweep());
    ASSERT_EQ(results.size(), 5u);
    for (std::size_t c = 0; c < 5; ++c) {
        EXPECT_EQ(results[c].name, kGolden[c].name);
        ASSERT_EQ(results[c].metrics.size(), 9u) << kGolden[c].name;
        for (std::size_t m = 0; m < 9; ++m) {
            EXPECT_EQ(results[c].metrics[m].first, kMetricKeys[m]);
            // Bit-exact: the policy hooks must fire at the same points
            // the enum branches did, consuming the same RNG draws.
            EXPECT_EQ(results[c].metrics[m].second,
                      kGolden[c].values[m])
                << kGolden[c].name << " / " << kMetricKeys[m];
        }
    }
}

TEST(DefenseRegression, Fig14GridMatchesGolden)
{
    expectGolden(fig14ThroughputGrid(400), kFig14Golden);
}

TEST(DefenseRegression, Fig15GridMatchesGolden)
{
    expectGolden(fig15TrafficGrid(Addr(4) << 20, 4000, 400),
                 kFig15Golden);
}

TEST(DefenseRegression, Fig16xGridMatchesGolden)
{
    expectGolden(extendedLatencyGrid(kRate, kRequests), kFig16xGolden);
}

TEST(DefenseRegression, Fig7qGridMatchesGolden)
{
    expectGolden(registeredGrid("fig7q"), kFig7qGolden);
}

TEST(DefenseRegression, Fig16qGridMatchesGolden)
{
    expectGolden(registeredGrid("fig16q"), kFig16qGolden);
}

TEST(DefenseRegression, FigD2GridMatchesGolden)
{
    expectGolden(registeredGrid("figD2"), kFigD2Golden);
}

TEST(DefenseRegression, ExtendedGridRunsNewSpecsByName)
{
    // The extended grid is registered like any other experiment and
    // reached through the registry by name; re-register it with a
    // test-sized request count first (documented registry behaviour).
    registerDefenseScenarios();
    runtime::ScenarioRegistry::instance().add(
        "fig16x", "extended defense cells (test-sized)",
        [] { return extendedLatencyGrid(kRate, 1500); });

    const auto results = runtime::sweep("fig16x", quietSweep());
    ASSERT_EQ(results.size(), extendedCells().size());

    bool saw_offset = false, saw_ddio_ways = false;
    for (const auto &r : results) {
        if (r.name.find("ring.offset") != std::string::npos)
            saw_offset = true;
        if (r.name.find("cache.ddio-ways:2") != std::string::npos)
            saw_ddio_ways = true;
        // Sane latency distribution in every cell.
        EXPECT_GT(r.value("p50"), 0.0) << r.name;
        EXPECT_LE(r.value("p50"), r.value("p99")) << r.name;
        EXPECT_LE(r.value("p99"), r.value("p99_99")) << r.name;
    }
    EXPECT_TRUE(saw_offset);
    EXPECT_TRUE(saw_ddio_ways);

    // The zero-allocation policies must be far cheaper than full
    // randomization: compare against the paper grid under the same
    // arrival process.
    const auto paper =
        runtime::sweep(fig16LatencyGrid(kRate, 1500), quietSweep());
    const double full_p99 = paper[1].value("p99");
    const double offset_p99 = results[0].value("p99");
    const double quarantine_p99 = results[1].value("p99");
    EXPECT_LT(offset_p99, full_p99);
    EXPECT_LT(quarantine_p99, full_p99);
}
