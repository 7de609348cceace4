/**
 * @file
 * Bit-exactness guards for the attacker pipeline (ctest label
 * `golden`): at queues:1 the chase cursors and the shared sampling
 * loop must reproduce, load for load, the monolithic loops the goldens
 * were captured from. The fingerprint and spy goldens were captured at
 * ee565e6 by running the then-monolithic ChasingMonitor / CovertSpy /
 * FingerprintAttack with exactly these configurations; the size
 * detector's at 7f1429f, before its sampling moved into
 * attack::sampleRounds.
 *
 * Three pins:
 *  - the closed-world fingerprint evaluation: accuracy, the full
 *    confusion matrix, and the raw size-class stream of one live
 *    capture (the strictest pin -- every probe round's timing feeds
 *    it);
 *  - the covert spy's decoded symbol stream and probe-round count;
 *  - the Fig. 8 size detector's per-(row, combo) activity rates at one
 *    packet size.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "attack/size_detector.hh"
#include "channel/capacity.hh"
#include "channel/trojan.hh"
#include "fingerprint/attack.hh"
#include "net/traffic.hh"
#include "runtime/scenario.hh"
#include "testbed/testbed.hh"
#include "workload/attack_eval.hh"

using namespace pktchase;

namespace
{

/** Golden accuracy of the fig20 queues:1 no-defense cell at campaign
 *  seed 1 (captured pre-refactor). */
constexpr double kGoldenAccuracy = 0x1p+0;
constexpr std::size_t kGoldenCorrect = 20;

/** Golden confusion[truth][predicted] (4 trials per site). */
const unsigned kGoldenConfusion[5][5] = {
    {4, 0, 0, 0, 0},
    {0, 4, 0, 0, 0},
    {0, 0, 4, 0, 0},
    {0, 0, 0, 4, 0},
    {0, 0, 0, 0, 4},
};

/** Golden size-class stream of one live capture (site 0, Rng(99),
 *  after the evaluation above ran on the same testbed). */
const char *kGoldenCapture =
    "4322434444444424442444444244444444444444444444444224444442444444"
    "4444444444442441442444444444442";

/** Golden covert-spy decode: Ternary, 2 buffers, 40 symbols, 14 kHz. */
constexpr std::uint64_t kGoldenSpyRounds = 268;
const char *kGoldenSpyStream = "1122112001010120000001022222020000021200";

/** Golden Fig. 8 rates: 3-block packets at 200 kpps, rows 0..3 of the
 *  first 24 active combos, 40 ms (activity[row][combo]). */
const double kGoldenSizeRates[4][24] = {
    {
        0x1.2bdce8df4d5bbp-2, 0x1.91f1a515885fbp-3, 0x1.8b90595224af7p-3,
        0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-3, 0x1.be9ab76d42317p-4,
        0x1.91f1a515885fbp-3, 0x1.8b90595224af7p-4, 0x1.9852f0d8ec0ffp-4,
        0x1.91f1a515885fbp-3, 0x1.9852f0d8ec0ffp-4, 0x1.9852f0d8ec0ffp-4,
        0x1.8b90595224af7p-3, 0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-4,
        0x1.8b90595224af7p-3, 0x1.8b90595224af7p-4, 0x1.8b90595224af7p-4,
        0x1.8b90595224af7p-4, 0x1.c4fc0330a5e1bp-3, 0x1.8b90595224af7p-4,
        0x1.9852f0d8ec0ffp-4, 0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-4,
    },
    {
        0x1.2bdce8df4d5bbp-2, 0x1.91f1a515885fbp-3, 0x1.8b90595224af7p-3,
        0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-3, 0x1.be9ab76d42317p-4,
        0x1.91f1a515885fbp-3, 0x1.8b90595224af7p-4, 0x1.9852f0d8ec0ffp-4,
        0x1.91f1a515885fbp-3, 0x1.9852f0d8ec0ffp-4, 0x1.9852f0d8ec0ffp-4,
        0x1.8b90595224af7p-3, 0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-4,
        0x1.8b90595224af7p-3, 0x1.8b90595224af7p-4, 0x1.8b90595224af7p-4,
        0x1.8b90595224af7p-4, 0x1.c4fc0330a5e1bp-3, 0x1.8b90595224af7p-4,
        0x1.9852f0d8ec0ffp-4, 0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-4,
    },
    {
        0x1.2bdce8df4d5bbp-2, 0x1.91f1a515885fbp-3, 0x1.8b90595224af7p-3,
        0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-3, 0x1.be9ab76d42317p-4,
        0x1.91f1a515885fbp-3, 0x1.8b90595224af7p-4, 0x1.9852f0d8ec0ffp-4,
        0x1.91f1a515885fbp-3, 0x1.9852f0d8ec0ffp-4, 0x1.9852f0d8ec0ffp-4,
        0x1.8b90595224af7p-3, 0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-4,
        0x1.8b90595224af7p-3, 0x1.8b90595224af7p-4, 0x1.8b90595224af7p-4,
        0x1.8b90595224af7p-4, 0x1.c4fc0330a5e1bp-3, 0x1.8b90595224af7p-4,
        0x1.9852f0d8ec0ffp-4, 0x1.9852f0d8ec0ffp-4, 0x1.8b90595224af7p-4,
    },
    {
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
        0x0p+0, 0x0p+0, 0x0p+0,
    },
};

std::string
digits(const std::vector<unsigned> &values)
{
    std::string out;
    out.reserve(values.size());
    for (unsigned v : values)
        out += static_cast<char>('0' + (v % 10));
    return out;
}

} // namespace

TEST(ProbeGolden, FingerprintConfusionMatrixBitIdentical)
{
    // Exactly the fig20/ring.none+cache.ddio cell at campaign seed 1.
    const std::uint64_t seed =
        runtime::splitSeed(1, runtime::axisSalt(0x20));

    testbed::Testbed tb(testbed::TestbedConfig{});
    fingerprint::WebsiteDb db(
        {"facebook.com", "twitter.com", "google.com", "amazon.com",
         "apple.com"},
        42);
    fingerprint::FingerprintAttack atk(tb, db,
                                       workload::fig20Config(seed));
    const fingerprint::FingerprintResult r = atk.evaluate();

    EXPECT_EQ(r.accuracy, kGoldenAccuracy); // bit-exact, not NEAR
    EXPECT_EQ(r.correct, kGoldenCorrect);
    EXPECT_EQ(r.trials, 20u);
    ASSERT_EQ(r.confusion.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        ASSERT_EQ(r.confusion[i].size(), 5u);
        for (std::size_t j = 0; j < 5; ++j)
            EXPECT_EQ(r.confusion[i][j], kGoldenConfusion[i][j])
                << "confusion[" << i << "][" << j << "]";
    }

    // The strictest pin: the raw recovered size-class stream of a
    // live capture depends on every probe round the chase scheduled.
    Rng rng(99);
    EXPECT_EQ(digits(atk.captureVisit(0, rng)), kGoldenCapture);
}

TEST(ProbeGolden, Fig20GridCellReproducesGoldenAccuracy)
{
    // The same cell through the scenario-grid path, now decomposed
    // into one task per trial: the monolithic reference (serial task
    // loop + fold) must still find every trial classifiable -- the
    // per-trial seeds changed the page-load draws, but the undefended
    // queues:1 capture stays perfectly classifiable.
    const auto grid = workload::fig20FingerprintGrid();
    ASSERT_FALSE(grid.empty());
    ASSERT_EQ(grid[0].name, "fig20/ring.none+cache.ddio");
    ASSERT_EQ(grid[0].taskCount(), 20u);

    const runtime::ScenarioResult r =
        runtime::runScenarioMonolithic(grid[0], 0, 1); // seed 1
    EXPECT_EQ(r.value("accuracy"), kGoldenAccuracy);
    EXPECT_EQ(r.value("correct"),
              static_cast<double>(kGoldenCorrect));
}

TEST(ProbeGolden, SpySymbolStreamBitIdentical)
{
    testbed::Testbed tb(testbed::TestbedConfig{});
    const std::size_t n_buffers = 2;
    const std::vector<unsigned> sent =
        channel::testSymbols(channel::Scheme::Ternary, 40);
    const std::size_t ring = tb.driver().ring().size();
    const std::size_t pps = ring / n_buffers;
    const std::vector<std::size_t> buffers =
        channel::pickMonitoredBuffers(tb, n_buffers);

    double total_seconds = 0.0;
    for (unsigned s : sent) {
        nic::Frame f;
        f.bytes = channel::frameBytes(channel::Scheme::Ternary, s);
        total_seconds +=
            static_cast<double>(pps) / net::maxFrameRate(f.bytes);
    }
    const Cycles start = tb.eq().now();
    const Cycles horizon =
        start + secondsToCycles(total_seconds * 1.3 + 0.01);

    auto trojan = std::make_unique<channel::TrojanSource>(
        sent, channel::Scheme::Ternary, pps, 0.0);
    net::TrafficPump pump(tb.eq(), tb.driver(), std::move(trojan),
                          start + 1000, 2000.0, 5);

    channel::SpyConfig spy_cfg;
    spy_cfg.probeRateHz = 14000;
    spy_cfg.probe.ways = tb.config().llc.geom.ways;
    channel::CovertSpy spy(tb.hier(), tb.groups(), buffers,
                           channel::Scheme::Ternary, spy_cfg);
    const channel::ListenResult listened = spy.listen(tb.eq(), horizon);

    EXPECT_EQ(listened.rounds, kGoldenSpyRounds);
    EXPECT_EQ(digits(listened.symbols()), kGoldenSpyStream);
}

TEST(ProbeGolden, SizeDetectorRatesBitIdentical)
{
    // Fig. 8's setup (bench_fig8_size_detection) at one packet size.
    testbed::Testbed tb(testbed::TestbedConfig{});
    auto combos = tb.activeCombos();
    combos.resize(24);
    attack::SizeDetectorConfig cfg;
    cfg.probe.ways = tb.config().llc.geom.ways;
    attack::SizeDetector det(tb.hier(), tb.groups(), combos, cfg);
    net::TrafficPump pump(
        tb.eq(), tb.driver(),
        std::make_unique<net::ConstantStream>(3 * blockBytes, 200000.0,
                                              0),
        tb.eq().now() + 1000);
    const auto rates =
        det.measure(tb.eq(), tb.eq().now() + secondsToCycles(0.04));

    ASSERT_EQ(rates.size(), 4u);
    for (std::size_t row = 0; row < 4; ++row) {
        ASSERT_EQ(rates[row].size(), 24u);
        for (std::size_t c = 0; c < 24; ++c)
            EXPECT_EQ(rates[row][c], kGoldenSizeRates[row][c])
                << "row " << row << " combo " << c;
    }
}
