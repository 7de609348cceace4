/**
 * @file
 * Online packet-chasing detectors over the counter telemetry.
 *
 * A Detector consumes telemetry samples and produces a time-stamped
 * score stream plus a thresholded alarm stream (Score::alarm). All
 * three built-ins are windowed estimators with no global state, so a
 * campaign cell owning its own detector instances inherits the
 * runtime's determinism contract unchanged:
 *
 *  - MissRateSpike ("miss-spike"): z-score of the recent per-epoch
 *    LLC miss count against a calibrated baseline. The first
 *    `window` samples are a deploy-time calibration span (assumed
 *    benign, as a fleet rollout would measure); the baseline mean/sd
 *    then freeze, so a spy that probes *continuously* stays detected
 *    instead of being absorbed into a sliding baseline. A
 *    PRIME+PROBE spy's eviction-set loads are almost all misses, so
 *    probing lifts the short-window mean far above the baseline.
 *    (Counts, not rates: at microsecond epochs the per-epoch rate is
 *    dominated by how many packets happened to arrive, which buries
 *    the spy's added misses in benign variance.)
 *
 *  - ReuseEntropyDrop ("entropy-drop"): drop of the cross-queue
 *    recycle entropy (the RxAggSample stream) below a baseline
 *    calibrated over the first `window` samples and then frozen
 *    (same deploy-time-calibration model as miss-spike). Both spans
 *    sum per-epoch queue counts before taking the entropy, so sparse
 *    epochs (a few packets each) still yield a stable distribution
 *    estimate. A trojan or covert sender hammering one flow
 *    concentrates recycles on one RSS queue and collapses the
 *    entropy. Structurally blind at queues == 1 (the distribution is
 *    degenerate) and to purely passive cache-side scanning -- by
 *    design; figD1 quantifies both.
 *
 *  - ProbeCadence ("cadence"): peak autocorrelation of the per-epoch
 *    eviction-set-conflict count (I/O lines displaced by CPU fills).
 *    A spy priming ring-buffer eviction sets at a fixed probe rate
 *    produces conflict bursts with a stable period; benign server
 *    fills displace I/O lines only sporadically and aperiodically
 *    (Poisson arrivals). Alarms additionally require minEvents
 *    conflicts in the window so a near-silent counter cannot alarm on
 *    autocorrelated noise.
 *
 * Scores are threshold-independent (no baseline update ever depends
 * on whether a sample alarmed), so ROC sweeps can re-threshold a
 * recorded score stream without re-running the simulation.
 */

#ifndef PKTCHASE_DETECT_DETECTOR_HH
#define PKTCHASE_DETECT_DETECTOR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "detect/sample.hh"
#include "sim/types.hh"

namespace pktchase::detect
{

/** One scored epoch. */
struct Score
{
    std::uint64_t epoch = 0; ///< Epoch index of the scored sample.
    Cycles when = 0;         ///< Epoch-end timestamp.
    double score = 0.0;
    bool alarm = false;      ///< score > the detector's threshold.
};

/** Shared sliding-window tuning; zero/default fields pick per-type
 *  defaults (see each detector's kDefault* constants). */
struct DetectorConfig
{
    unsigned window = 96;     ///< Baseline window length, samples.
    unsigned shortWindow = 4; ///< Recent span scored against baseline.
    double threshold = 0.0;   ///< 0 = the detector type's default.

    // Cadence-only knobs.
    unsigned minLag = 3;      ///< Shortest period considered, epochs.
    unsigned maxLag = 0;      ///< 0 = window / 2.
    double minEvents = 8.0;   ///< Alarm floor: conflicts in window.

    // Entropy-drop-only knob: samples summed into the recent span
    // (the baseline span reuses `window`).
    unsigned entropyShort = 24;
};

/**
 * Detector interface: feed samples, read the score/alarm streams.
 */
class Detector
{
  public:
    virtual ~Detector() = default;

    /** Canonical registry name, e.g. "cadence". */
    virtual std::string name() const = 0;

    /**
     * Consume one sample. @return the Score it produced (owned by the
     * detector, valid until the next onSample), or nullptr when the
     * detector does not read this source.
     */
    const Score *onSample(const LlcSample &s);
    const Score *onSample(const RxAggSample &s);

    /** The full time-stamped score stream, in consumption order. */
    const std::vector<Score> &scores() const { return scores_; }

    /** Number of alarmed scores so far. */
    std::uint64_t alarmCount() const { return alarms_; }

    double threshold() const { return threshold_; }

  protected:
    explicit Detector(double threshold) : threshold_(threshold) {}

    /**
     * Per-source hooks: score @p s into @p score, or return false when
     * this detector does not read the source (the default).
     */
    virtual bool scoreLlc(const LlcSample &, double &) { return false; }
    virtual bool scoreAgg(const RxAggSample &, double &) { return false; }

  private:
    const Score *record(const Epoch &e, double score);

    double threshold_;
    std::vector<Score> scores_;
    std::uint64_t alarms_ = 0;
};

/** Calibrated-baseline z-score on per-epoch LLC miss counts. */
class MissRateSpike : public Detector
{
  public:
    static constexpr double kDefaultThreshold = 2.0;
    static constexpr double kMinSigma = 2.0; ///< Miss-count units.

    explicit MissRateSpike(const DetectorConfig &cfg = {});

    std::string name() const override { return "miss-spike"; }

  protected:
    bool scoreLlc(const LlcSample &s, double &score) override;

  private:
    unsigned window_;
    unsigned short_;
    std::vector<double> calib_;  ///< Calibration span, until frozen.
    bool frozen_ = false;
    double mean_ = 0.0;          ///< Frozen baseline mean.
    double sd_ = 0.0;            ///< Frozen baseline deviation.
    std::deque<double> recent_;  ///< Last shortWindow samples.
};

/** Cross-queue recycle-entropy drop below a calibrated baseline. */
class ReuseEntropyDrop : public Detector
{
  public:
    /** Entropy is normalized to [0, 1]; span-summed benign sampling
     *  noise stays within a few hundredths, so 0.16 of concentration
     *  below baseline is a confident flood signature. */
    static constexpr double kDefaultThreshold = 0.16;

    explicit ReuseEntropyDrop(const DetectorConfig &cfg = {});

    std::string name() const override { return "entropy-drop"; }

  protected:
    bool scoreAgg(const RxAggSample &s, double &score) override;

  private:
    unsigned window_;
    unsigned short_;
    std::vector<double> calibCounts_; ///< Summed calibration counts.
    unsigned calibSamples_ = 0;
    bool frozen_ = false;
    double baseEntropy_ = 1.0;        ///< Frozen baseline entropy.
    std::deque<std::vector<double>> recent_; ///< Last entropyShort.
};

/** Autocorrelation peak of per-epoch eviction-set-conflict counts. */
class ProbeCadence : public Detector
{
  public:
    static constexpr double kDefaultThreshold = 0.5;

    explicit ProbeCadence(const DetectorConfig &cfg = {});

    std::string name() const override { return "cadence"; }

    /** Best-correlated lag (epochs) of the last scored window; 0
     *  before the window first fills. */
    unsigned bestLag() const { return bestLag_; }

  protected:
    bool scoreLlc(const LlcSample &s, double &score) override;

  private:
    unsigned window_;
    unsigned minLag_;
    unsigned maxLag_;
    double minEvents_;

    // The window lives in a flat ring buffer (head_ = next write slot
    // = oldest element once full) and each evaluation linearizes it
    // into scratch_, which then holds the per-epoch deviations for
    // the lag loop -- flat contiguous arrays instead of a deque, with
    // the exact same summation order as the original deque walk, so
    // scores stay bit-identical.
    std::vector<double> ring_;
    std::size_t head_ = 0;
    std::size_t filled_ = 0;
    std::vector<double> scratch_;
    /**
     * Window total maintained incrementally. ioConflicts values are
     * integral counts, so every partial sum is exact in a double and
     * this equals the linearized left-to-right total bit-for-bit --
     * safe to use for the minEvents early-out without touching the
     * window (the make-or-break cost on benign cells, where nearly
     * every epoch exits here).
     */
    double runningTotal_ = 0.0;
    unsigned bestLag_ = 0;
};

/** The registered detector names, sorted. */
std::vector<std::string> detectorNames();

/** Whether @p name names a built-in detector. */
bool isDetectorName(const std::string &name);

/** Instantiate the detector named @p name at its default tuning;
 *  fatal when unknown. */
std::unique_ptr<Detector> makeDetector(const std::string &name);

/**
 * Area under the ROC curve separating @p positives (attack-epoch
 * scores) from @p negatives (benign-epoch scores): the Mann-Whitney
 * probability that a random positive outscores a random negative,
 * ties counted half. 0.5 = chance, 1.0 = perfect separation.
 */
double aucScore(std::vector<double> positives,
                std::vector<double> negatives);

} // namespace pktchase::detect

#endif // PKTCHASE_DETECT_DETECTOR_HH
