/**
 * @file
 * Golden pin for the detection pipeline (ctest label `golden`): the
 * figD1 cadence attack cell's score stream and alarm timestamps,
 * captured from the implementation this PR introduced. The pinned
 * facts cover the whole stack end to end -- LLC/NIC telemetry hooks,
 * epoch rolling and zero-fill, the rig's fan-out, and the cadence
 * detector's autocorrelation -- so any change that perturbs a single
 * counter delta, epoch boundary, or floating-point operation in the
 * scoring path fails loudly here.
 *
 * Scores are compared as C99 hexfloats ("%a"): the scoring path is
 * pure IEEE arithmetic (add/mul/div/sqrt), so the values are exact
 * across conforming platforms, like the other golden tests' pins.
 *
 * The figD1 golden pins the whole registered grid (all three
 * detectors, every probe rate and queue count, the benign-server
 * false-positive cells): the formatReport() string captured at commit
 * 6bcbda8 through `campaign figD1` at campaign seed 1, checked at
 * threads=1 and threads=4.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "runtime/campaign.hh"
#include "runtime/registry.hh"
#include "workload/detect_eval.hh"

using namespace pktchase;
using namespace pktchase::workload;

namespace
{

constexpr std::uint64_t kGoldenSeed = 0xD5EED;

std::string
hexOf(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

struct GoldenScore
{
    std::uint64_t epoch;
    Cycles when;
    const char *hex;
};

/** Sixteen consecutive scores starting at the first alarm, captured
 *  at the figD1 cell (cadence, 8 kHz probe rate, 1 queue). */
constexpr GoldenScore kScores[] = {
    {3342ull, 66860000ull, "0x1.04b97ecf53f72p-1"},
    {3343ull, 66880000ull, "0x1.04b97ecf53f72p-1"},
    {3344ull, 66900000ull, "0x1.04b97ecf53f71p-1"},
    {3345ull, 66920000ull, "0x1.04b97ecf53f7p-1"},
    {3346ull, 66940000ull, "0x1.04b97ecf53f6fp-1"},
    {3347ull, 66960000ull, "0x1.04b97ecf53f6fp-1"},
    {3348ull, 66980000ull, "0x1.04b97ecf53f6ep-1"},
    {3349ull, 67000000ull, "0x1.04b97ecf53f6ep-1"},
    {3350ull, 67020000ull, "0x1.04b97ecf53f6ep-1"},
    {3351ull, 67040000ull, "0x1.04b97ecf53f6dp-1"},
    {3352ull, 67060000ull, "0x1.04b97ecf53f6dp-1"},
    {3353ull, 67080000ull, "0x1.04b97ecf53f6cp-1"},
    {3354ull, 67100000ull, "0x1.04b97ecf53f6bp-1"},
    {3355ull, 67120000ull, "0x1.04b97ecf53f6ap-1"},
    {3356ull, 67140000ull, "0x1.04b97ecf53f6ap-1"},
    {3357ull, 67160000ull, "0x1.04b97ecf53f69p-1"},
};

/** The first six alarm timestamps (epoch-end cycles). */
constexpr Cycles kAlarmTimes[] = {
    66860000ull, 66880000ull, 66900000ull,
    66920000ull, 66940000ull, 66960000ull,
};

/** The registered figD1 grid at campaign seed 1 (see file comment). */
const char *const kFigD1Golden =
    "[0] figD1/cadence/4khz auc=0x1.fefd477194406p-1 "
    "tpr=0x1.5a699262bb0b4p-2 fpr=0x0p+0 "
    "attack_epochs=0x1.9bap+11 benign_epochs=0x1.927p+12\n"
    "[1] figD1/cadence/4khz+nic.queues:4 "
    "auc=0x1.ff74b050d9ac8p-1 tpr=0x1.588beee5a55acp-2 "
    "fpr=0x0p+0 attack_epochs=0x1.9bap+11 "
    "benign_epochs=0x1.927p+12\n"
    "[2] figD1/cadence/8khz auc=0x1.ff112e417527cp-1 "
    "tpr=0x1.f6abce8e938d4p-1 fpr=0x0p+0 "
    "attack_epochs=0x1.9bap+11 benign_epochs=0x1.927p+12\n"
    "[3] figD1/cadence/8khz+nic.queues:4 "
    "auc=0x1.ff74b050d9ac8p-1 tpr=0x1.f47e8fd1fa3f4p-1 "
    "fpr=0x0p+0 attack_epochs=0x1.9bap+11 "
    "benign_epochs=0x1.927p+12\n"
    "[4] figD1/cadence/16khz auc=0x1.ffd832603e315p-1 "
    "tpr=0x1.f7c26dece0344p-1 fpr=0x0p+0 "
    "attack_epochs=0x1.9bap+11 benign_epochs=0x1.927p+12\n"
    "[5] figD1/cadence/16khz+nic.queues:4 "
    "auc=0x1.ffd832603e315p-1 tpr=0x1.f7c26dece0344p-1 "
    "fpr=0x0p+0 attack_epochs=0x1.9bap+11 "
    "benign_epochs=0x1.927p+12\n"
    "[6] figD1/entropy-drop/4khz auc=0x1p-1 tpr=0x0p+0 "
    "fpr=0x0p+0 attack_epochs=0x1.9b6p+11 "
    "benign_epochs=0x1.e04p+11\n"
    "[7] figD1/entropy-drop/4khz+nic.queues:4 "
    "auc=0x1.f7cc280a2d6e1p-1 tpr=0x1.cfed54b606114p-1 "
    "fpr=0x1.92fd77cde48c3p-5 attack_epochs=0x1.9b6p+11 "
    "benign_epochs=0x1.e04p+11\n"
    "[8] figD1/entropy-drop/8khz auc=0x1p-1 tpr=0x0p+0 "
    "fpr=0x0p+0 attack_epochs=0x1.9b6p+11 "
    "benign_epochs=0x1.e04p+11\n"
    "[9] figD1/entropy-drop/8khz+nic.queues:4 "
    "auc=0x1.f7cc280a2d6e1p-1 tpr=0x1.cfed54b606114p-1 "
    "fpr=0x1.92fd77cde48c3p-5 attack_epochs=0x1.9b6p+11 "
    "benign_epochs=0x1.e04p+11\n"
    "[10] figD1/entropy-drop/16khz auc=0x1p-1 tpr=0x0p+0 "
    "fpr=0x0p+0 attack_epochs=0x1.9b6p+11 "
    "benign_epochs=0x1.e04p+11\n"
    "[11] figD1/entropy-drop/16khz+nic.queues:4 "
    "auc=0x1.f7cc280a2d6e1p-1 tpr=0x1.cfed54b606114p-1 "
    "fpr=0x1.92fd77cde48c3p-5 attack_epochs=0x1.9b6p+11 "
    "benign_epochs=0x1.e04p+11\n"
    "[12] figD1/miss-spike/4khz auc=0x1.fc29ddea21ba9p-1 "
    "tpr=0x1.26cae73362f6cp-3 fpr=0x0p+0 "
    "attack_epochs=0x1.9bap+11 benign_epochs=0x1.927p+12\n"
    "[13] figD1/miss-spike/4khz+nic.queues:4 "
    "auc=0x1.fd0545126c86ep-1 tpr=0x1.41890e8999d95p-3 "
    "fpr=0x0p+0 attack_epochs=0x1.9bap+11 "
    "benign_epochs=0x1.927p+12\n"
    "[14] figD1/miss-spike/8khz auc=0x1.fffcb61e22f4fp-1 "
    "tpr=0x1.1560f14e9886fp-2 fpr=0x0p+0 "
    "attack_epochs=0x1.9bap+11 benign_epochs=0x1.927p+12\n"
    "[15] figD1/miss-spike/8khz+nic.queues:4 "
    "auc=0x1.fffbf50df3275p-1 tpr=0x1.2220ce7aacbd6p-2 "
    "fpr=0x0p+0 attack_epochs=0x1.9bap+11 "
    "benign_epochs=0x1.927p+12\n"
    "[16] figD1/miss-spike/16khz auc=0x1.fffddbab35157p-1 "
    "tpr=0x1.03f6fb69ce173p-1 fpr=0x0p+0 "
    "attack_epochs=0x1.9bap+11 benign_epochs=0x1.927p+12\n"
    "[17] figD1/miss-spike/16khz+nic.queues:4 "
    "auc=0x1.fffd7a588e4c3p-1 tpr=0x1.0829ab433ee46p-1 "
    "fpr=0x0p+0 attack_epochs=0x1.9bap+11 "
    "benign_epochs=0x1.927p+12\n"
    "[18] figD1/cadence/server-fpr fpr=0x0p+0 score_peak=0x0p+0 "
    "epochs=0x1.2bfp+13\n"
    "[19] figD1/entropy-drop/server-fpr fpr=0x0p+0 "
    "score_peak=0x0p+0 epochs=0x1.73dp+12\n"
    "[20] figD1/miss-spike/server-fpr fpr=0x0p+0 "
    "score_peak=0x1.757b82ce2fafp-4 epochs=0x1.2bfp+13\n";

/** The formatReport() string of the registered figD1 grid at
 *  campaign seed 1. */
std::string
runFigD1(unsigned threads)
{
    registerDetectionScenarios();
    runtime::CampaignConfig cfg;
    cfg.threads = threads;
    cfg.seed = 1;
    runtime::Campaign campaign(cfg);
    return runtime::formatReport(campaign.run(
        runtime::ScenarioRegistry::instance().make("figD1")));
}

} // namespace

TEST(DetectGolden, CadenceScoreStreamAndAlarmsPinned)
{
    const DetectionTrace t =
        runDetectionAttack("cadence", 8000.0, 1, kGoldenSeed);

    ASSERT_EQ(t.scores.size(), 6601u);
    // 6601 LLC samples plus 5276 aggregate recycle samples.
    EXPECT_EQ(t.samples, 11877u);

    std::size_t alarms = 0, first_alarm = 0;
    for (std::size_t i = 0; i < t.scores.size(); ++i) {
        if (t.scores[i].alarm) {
            if (alarms == 0)
                first_alarm = i;
            ++alarms;
        }
    }
    EXPECT_EQ(alarms, 3255u);
    ASSERT_EQ(first_alarm, 3342u);

    for (std::size_t i = 0; i < std::size(kScores); ++i) {
        const detect::Score &s = t.scores[first_alarm + i];
        EXPECT_EQ(s.epoch, kScores[i].epoch) << "score " << i;
        EXPECT_EQ(s.when, kScores[i].when) << "score " << i;
        EXPECT_EQ(hexOf(s.score), kScores[i].hex) << "score " << i;
        EXPECT_TRUE(s.alarm) << "score " << i;
    }

    // The alarm-time stream begins exactly at the pinned cycles: the
    // gate would arm ~0.25 ms of simulated time after attack onset.
    std::size_t seen = 0;
    for (const detect::Score &s : t.scores) {
        if (!s.alarm)
            continue;
        ASSERT_LT(seen, std::size(kAlarmTimes));
        EXPECT_EQ(s.when, kAlarmTimes[seen]);
        if (++seen == std::size(kAlarmTimes))
            break;
    }
    EXPECT_EQ(seen, std::size(kAlarmTimes));
}

TEST(DetectGolden, TraceIsRunToRunDeterministic)
{
    const DetectionTrace a =
        runDetectionAttack("miss-spike", 8000.0, 4, kGoldenSeed);
    const DetectionTrace b =
        runDetectionAttack("miss-spike", 8000.0, 4, kGoldenSeed);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    EXPECT_EQ(a.samples, b.samples);
    for (std::size_t i = 0; i < a.scores.size(); ++i) {
        EXPECT_EQ(a.scores[i].when, b.scores[i].when);
        EXPECT_EQ(a.scores[i].score, b.scores[i].score);
        EXPECT_EQ(a.scores[i].alarm, b.scores[i].alarm);
    }
}

TEST(DetectGolden, FigD1GridMatchesGolden)
{
    EXPECT_EQ(runFigD1(1), kFigD1Golden) << "threads=1";
    EXPECT_EQ(runFigD1(4), kFigD1Golden) << "threads=4";
}
