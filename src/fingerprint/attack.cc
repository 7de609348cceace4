#include "attack.hh"

#include <algorithm>

#include "attack/chasing.hh"
#include "net/traffic.hh"
#include "sim/logging.hh"

namespace pktchase::fingerprint
{

FingerprintAttack::FingerprintAttack(testbed::Testbed &tb,
                                     const WebsiteDb &db,
                                     const FingerprintConfig &cfg)
    : tb_(tb), db_(db), cfg_(cfg), clf_(cfg.classifier)
{
    chaseSeqs_ = tb_.queueComboSequences();
    if (cfg_.sequenceErrorRate > 0.0) {
        // One shared perturbation stream in queue order keeps the
        // queues:1 draw sequence identical to the single-ring model's.
        Rng rng(cfg_.seed ^ 0x5EC5u);
        for (auto &seq : chaseSeqs_) {
            for (std::size_t i = 0; i + 1 < seq.size(); ++i)
                if (rng.nextBool(cfg_.sequenceErrorRate))
                    std::swap(seq[i], seq[i + 1]);
        }
    }
}

std::vector<std::vector<std::size_t>>
FingerprintAttack::rotatedSequences() const
{
    // The spy tracks every ring's position continuously (it has been
    // chasing since setup), so each queue's chase starts at the slot
    // that queue's NIC ring will fill next.
    std::vector<std::vector<std::size_t>> seqs = chaseSeqs_;
    tb_.rotateToRingHeads(seqs);
    return seqs;
}

std::vector<unsigned>
FingerprintAttack::truthClasses(const std::vector<nic::Frame> &frames,
                                std::size_t length)
{
    std::vector<unsigned> classes;
    classes.reserve(length);
    for (const nic::Frame &f : frames) {
        if (classes.size() >= length)
            break;
        classes.push_back(sizeClassOf(f.bytes));
    }
    return classes;
}

std::vector<unsigned>
FingerprintAttack::captureVisit(std::size_t site, Rng &rng)
{
    const std::vector<nic::Frame> frames = db_.visit(site, rng);

    const Cycles start = tb_.eq().now();
    const double secs =
        static_cast<double>(frames.size()) / cfg_.visitRatePps;
    const Cycles horizon = start + secondsToCycles(secs * 1.4 + 0.002);

    auto stream = std::make_unique<net::ReplayStream>(
        frames, cfg_.visitRatePps);
    net::TrafficPump pump(tb_.eq(), tb_.driver(), std::move(stream),
                          start + 1000, cfg_.arrivalJitterSigma,
                          rng.next());

    attack::ChaseConfig ch;
    ch.probe.ways = tb_.config().llc.geom.ways;
    ch.probeInterval = std::max<Cycles>(
        500, secondsToCycles(1.0 / cfg_.visitRatePps) / 4);
    attack::ChasingMonitor chaser(tb_.hier(), tb_.groups(),
                                  rotatedSequences(), ch);
    const attack::ChaseResult r = chaser.chase(tb_.eq(), horizon);
    probeRounds_ += r.probes;

    std::vector<unsigned> classes;
    classes.reserve(cfg_.classifier.length);
    for (const attack::PacketObservation &obs : r.packets) {
        if (classes.size() >= cfg_.classifier.length)
            break;
        classes.push_back(obs.sizeClass);
    }
    return classes;
}

void
FingerprintAttack::train(Rng &rng)
{
    // Offline phase: templates from ground-truth traces of noisy
    // visits (the attacker's own tcpdump captures).
    for (std::size_t site = 0; site < db_.size(); ++site) {
        for (std::size_t v = 0; v < cfg_.trainVisits; ++v) {
            clf_.train(site,
                       truthClasses(db_.visit(site, rng),
                                    cfg_.classifier.length));
        }
    }
}

TrialOutcome
FingerprintAttack::trial(std::size_t site, Rng &rng)
{
    TrialOutcome out;
    out.site = site;
    const std::uint64_t rounds_before = probeRounds_;
    out.predicted = clf_.classify(captureVisit(site, rng));
    out.probeRounds = probeRounds_ - rounds_before;
    return out;
}

FingerprintResult
FingerprintAttack::evaluate()
{
    // One shared stream across training and trials, so the draw
    // sequence (and every golden pinned to it) is unchanged from the
    // pre-decomposition monolithic loop.
    Rng rng(cfg_.seed);
    train(rng);

    FingerprintResult result;
    result.confusion.assign(
        db_.size(), std::vector<unsigned>(db_.size(), 0));

    const std::uint64_t rounds_before = probeRounds_;
    for (std::size_t t = 0; t < cfg_.trials; ++t) {
        const TrialOutcome o = trial(t % db_.size(), rng);
        ++result.confusion[o.site][o.predicted];
        if (o.predicted == o.site)
            ++result.correct;
        ++result.trials;
    }
    result.probeRounds = probeRounds_ - rounds_before;
    result.accuracy = result.trials > 0
        ? static_cast<double>(result.correct) /
            static_cast<double>(result.trials)
        : 0.0;
    return result;
}

} // namespace pktchase::fingerprint
