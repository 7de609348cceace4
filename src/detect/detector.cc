#include "detector.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace pktchase::detect
{

// ------------------------------------------------------------ Detector --

const Score *
Detector::onSample(const LlcSample &s)
{
    double score = 0.0;
    return scoreLlc(s, score) ? record(s, score) : nullptr;
}

const Score *
Detector::onSample(const RxAggSample &s)
{
    double score = 0.0;
    return scoreAgg(s, score) ? record(s, score) : nullptr;
}

const Score *
Detector::record(const Epoch &e, double score)
{
    Score sc;
    sc.epoch = e.epoch;
    sc.when = e.end;
    sc.score = score;
    sc.alarm = score > threshold_;
    if (sc.alarm)
        ++alarms_;
    scores_.push_back(sc);
    return &scores_.back();
}

// -------------------------------------------------------- MissRateSpike --

MissRateSpike::MissRateSpike(const DetectorConfig &cfg)
    : Detector(cfg.threshold > 0.0 ? cfg.threshold : kDefaultThreshold),
      window_(cfg.window), short_(cfg.shortWindow)
{
    if (window_ < 2 || short_ < 1)
        fatal("MissRateSpike: window must be >= 2 and shortWindow >= 1");
}

bool
MissRateSpike::scoreLlc(const LlcSample &s, double &score)
{
    const double x = static_cast<double>(s.cpuMisses);
    score = 0.0;

    if (!frozen_) {
        // Deploy-time calibration: collect the baseline, score zero.
        calib_.push_back(x);
        if (calib_.size() >= window_) {
            for (double v : calib_)
                mean_ += v;
            mean_ /= static_cast<double>(calib_.size());
            double var = 0.0;
            for (double v : calib_) {
                const double e = v - mean_;
                var += e * e;
            }
            sd_ = std::sqrt(var / static_cast<double>(calib_.size()));
            calib_.clear();
            calib_.shrink_to_fit();
            frozen_ = true;
        }
        return true;
    }

    recent_.push_back(x);
    if (recent_.size() > short_)
        recent_.pop_front();
    double m = 0.0;
    for (double v : recent_)
        m += v;
    m /= static_cast<double>(recent_.size());
    score = (m - mean_) / std::max(sd_, kMinSigma);
    return true;
}

// ----------------------------------------------------- ReuseEntropyDrop --

ReuseEntropyDrop::ReuseEntropyDrop(const DetectorConfig &cfg)
    : Detector(cfg.threshold > 0.0 ? cfg.threshold : kDefaultThreshold),
      window_(cfg.window), short_(cfg.entropyShort)
{
    if (window_ < 2 || short_ < 1)
        fatal("ReuseEntropyDrop: window must be >= 2 and "
              "entropyShort >= 1");
}

bool
ReuseEntropyDrop::scoreAgg(const RxAggSample &s, double &score)
{
    std::vector<double> counts(s.perQueue.begin(), s.perQueue.end());
    score = 0.0;

    if (!frozen_) {
        // Deploy-time calibration: sum the span's counts into one
        // well-populated distribution estimate, then freeze its
        // entropy as the baseline.
        if (calibCounts_.size() < counts.size())
            calibCounts_.resize(counts.size(), 0.0);
        for (std::size_t q = 0; q < counts.size(); ++q)
            calibCounts_[q] += counts[q];
        if (++calibSamples_ >= window_) {
            baseEntropy_ = normalizedShannonEntropy(calibCounts_);
            calibCounts_.clear();
            calibCounts_.shrink_to_fit();
            frozen_ = true;
        }
        return true;
    }

    recent_.push_back(std::move(counts));
    if (recent_.size() > short_)
        recent_.pop_front();
    if (recent_.size() < short_)
        return true;

    std::vector<double> sum;
    for (const auto &c : recent_) {
        if (sum.size() < c.size())
            sum.resize(c.size(), 0.0);
        for (std::size_t q = 0; q < c.size(); ++q)
            sum[q] += c[q];
    }

    // A drop below baseline scores positive; gains clamp at zero so
    // a defense raising entropy cannot read as an attack.
    score = std::max(0.0,
                     baseEntropy_ - normalizedShannonEntropy(sum));
    return true;
}

// --------------------------------------------------------- ProbeCadence --

ProbeCadence::ProbeCadence(const DetectorConfig &cfg)
    : Detector(cfg.threshold > 0.0 ? cfg.threshold : kDefaultThreshold),
      window_(cfg.window), minLag_(cfg.minLag),
      maxLag_(cfg.maxLag > 0 ? cfg.maxLag : cfg.window / 2),
      minEvents_(cfg.minEvents),
      ring_(cfg.window, 0.0), scratch_(cfg.window, 0.0)
{
    if (window_ < 8)
        fatal("ProbeCadence: window must be >= 8");
    if (minLag_ < 1 || maxLag_ <= minLag_ || maxLag_ >= window_)
        fatal("ProbeCadence: need 1 <= minLag < maxLag < window");
}

bool
ProbeCadence::scoreLlc(const LlcSample &s, double &score)
{
    const double x = static_cast<double>(s.ioConflicts);
    runningTotal_ += x;
    if (filled_ == window_)
        runningTotal_ -= ring_[head_];
    ring_[head_] = x;
    head_ = head_ + 1 == window_ ? 0 : head_ + 1;
    score = 0.0;
    if (filled_ < window_) {
        ++filled_;
        if (filled_ < window_)
            return true;
    }

    // Too few conflicts to alarm: skip the whole walk. runningTotal_
    // is integral-exact, so this is the same comparison the full pass
    // below would make (which also returns zero on a low total).
    if (runningTotal_ < minEvents_)
        return true;

    // Linearize oldest-to-newest into scratch_ (head_ is the oldest
    // slot now that the ring is full) and total in that same order.
    double total = 0.0;
    std::size_t i = head_;
    for (unsigned t = 0; t < window_; ++t) {
        const double v = ring_[i];
        scratch_[t] = v;
        total += v;
        if (++i == window_)
            i = 0;
    }
    const double mean = total / static_cast<double>(window_);

    // Second pass turns scratch_ into the deviation series d[t] =
    // x[t] - mean while accumulating the variance; the lag loop below
    // then reads precomputed deviations instead of re-subtracting the
    // mean O(window * lags) times.
    double var = 0.0;
    for (unsigned t = 0; t < window_; ++t) {
        const double e = scratch_[t] - mean;
        scratch_[t] = e;
        var += e * e;
    }
    if (var <= 0.0 || total < minEvents_)
        return true;

    // Normalized autocorrelation peak over the candidate periods. The
    // attacker's probe loop is the only agent that displaces I/O lines
    // on a fixed period, so a high peak means "someone is priming the
    // ring's sets on a schedule".
    //
    // The classic loop nest (per lag, walk t) is one serial chain of
    // dependent FP adds per lag -- latency-bound. Processing eight
    // lags per pass runs eight independent add chains concurrently,
    // hiding that latency. Each chain still receives its products in
    // ascending-t order (a shared prefix up to the shortest chain's
    // length, then per-lag tails), so every per-lag sum -- and
    // therefore every score -- is bit-identical to the serial loop
    // that finishes the remaining lags.
    const double *dev = scratch_.data();
    double best = 0.0;
    unsigned best_lag = 0;
    const auto consider = [&](double acc, unsigned lag) {
        const double r = acc / var;
        if (r > best) {
            best = r;
            best_lag = lag;
        }
    };
    unsigned lag = minLag_;
    for (; lag + 7 <= maxLag_; lag += 8) {
        const unsigned shared = window_ - (lag + 7); // shortest chain
        double a0 = 0, a1 = 0, a2 = 0, a3 = 0;
        double a4 = 0, a5 = 0, a6 = 0, a7 = 0;
        for (unsigned t = 0; t < shared; ++t) {
            const double d = dev[t];
            const double *row = dev + t + lag;
            a0 += d * row[0];
            a1 += d * row[1];
            a2 += d * row[2];
            a3 += d * row[3];
            a4 += d * row[4];
            a5 += d * row[5];
            a6 += d * row[6];
            a7 += d * row[7];
        }
        double acc[8] = {a0, a1, a2, a3, a4, a5, a6, a7};
        // Lag + k has 7 - k products past the shared prefix.
        for (unsigned k = 0; k < 7; ++k)
            for (unsigned t = shared; t + lag + k < window_; ++t)
                acc[k] += dev[t] * dev[t + lag + k];
        for (unsigned k = 0; k < 8; ++k)
            consider(acc[k], lag + k);
    }
    for (; lag <= maxLag_; ++lag) {
        double acc = 0.0;
        const unsigned n = window_ - lag;
        for (unsigned t = 0; t < n; ++t)
            acc += dev[t] * dev[t + lag];
        consider(acc, lag);
    }
    bestLag_ = best_lag;
    score = best;
    return true;
}

// ------------------------------------------------------------- factory --

std::vector<std::string>
detectorNames()
{
    return {"cadence", "entropy-drop", "miss-spike"};
}

bool
isDetectorName(const std::string &name)
{
    const auto names = detectorNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Detector>
makeDetector(const std::string &name)
{
    if (name == "miss-spike")
        return std::make_unique<MissRateSpike>();
    if (name == "entropy-drop")
        return std::make_unique<ReuseEntropyDrop>();
    if (name == "cadence")
        return std::make_unique<ProbeCadence>();
    fatal("detect::makeDetector: unknown detector \"" + name +
          "\" (known: cadence, entropy-drop, miss-spike)");
}

double
aucScore(std::vector<double> positives, std::vector<double> negatives)
{
    if (positives.empty() || negatives.empty())
        return 0.5;
    std::sort(negatives.begin(), negatives.end());
    double wins = 0.0;
    for (double p : positives) {
        const auto lo = std::lower_bound(negatives.begin(),
                                         negatives.end(), p);
        const auto hi = std::upper_bound(lo, negatives.end(), p);
        wins += static_cast<double>(lo - negatives.begin());
        wins += 0.5 * static_cast<double>(hi - lo);
    }
    return wins / (static_cast<double>(positives.size()) *
                   static_cast<double>(negatives.size()));
}

} // namespace pktchase::detect
