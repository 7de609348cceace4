/**
 * @file
 * End-to-end web fingerprinting attack (Sec. V).
 *
 * Offline, the attacker (on its own machine) records ground-truth
 * packet-size traces per site -- the tcpdump phase -- and builds
 * representative templates. Online, the spy process chases the ring
 * on the victim host while the victim loads a page, captures the
 * (size-class, order) sequence from cache activity alone, and the
 * classifier names the site. Accuracy is evaluated closed-world over
 * the five-site database, with DDIO on or off (the paper measures
 * 89.7% and 86.5% respectively).
 *
 * On a multi-queue NIC the page load's connections are RSS-spread
 * across receive queues; the spy runs one chase cursor per queue
 * (attack::ChasingMonitor) and classifies the arrival-ordered merge of
 * every queue's packets. With queues == 1 the capture pipeline is
 * bit-identical to the paper's single-ring chase
 * (tests/probe_golden_test.cc).
 */

#ifndef PKTCHASE_FINGERPRINT_ATTACK_HH
#define PKTCHASE_FINGERPRINT_ATTACK_HH

#include <cstdint>
#include <vector>

#include "fingerprint/classifier.hh"
#include "fingerprint/website.hh"
#include "testbed/testbed.hh"

namespace pktchase::fingerprint
{

/** Experiment parameters. */
struct FingerprintConfig
{
    std::size_t trainVisits = 20;   ///< Offline visits per site.
    std::size_t trials = 100;       ///< Online classification trials.
    double visitRatePps = 40000;    ///< Victim page-load packet rate.
    double arrivalJitterSigma = 2000;

    /** Injected ring-sequence transpositions (recovery inaccuracy). */
    double sequenceErrorRate = 0.0;

    ClassifierConfig classifier;
    std::uint64_t seed = 17;
};

/** Outcome of a closed-world evaluation. */
struct FingerprintResult
{
    std::size_t trials = 0;
    std::size_t correct = 0;
    double accuracy = 0.0;
    /** confusion[truth][predicted] counts. */
    std::vector<std::vector<unsigned>> confusion;

    /** Probe rounds the spy executed across every trial capture. */
    std::uint64_t probeRounds = 0;
};

/** One live classification trial (the unit the campaign's sub-cell
 *  task decomposition schedules). */
struct TrialOutcome
{
    std::size_t site = 0;      ///< Ground-truth site visited.
    std::size_t predicted = 0; ///< Classifier's answer.
    std::uint64_t probeRounds = 0; ///< Spy rounds this trial cost.
};

/**
 * Drives the capture pipeline and the classifier.
 */
class FingerprintAttack
{
  public:
    FingerprintAttack(testbed::Testbed &tb, const WebsiteDb &db,
                      const FingerprintConfig &cfg);

    /**
     * Victim loads one page; the spy chases and captures size classes.
     */
    std::vector<unsigned> captureVisit(std::size_t site, Rng &rng);

    /** Ground-truth size classes of a visit (the tcpdump view). */
    static std::vector<unsigned>
    truthClasses(const std::vector<nic::Frame> &frames,
                 std::size_t length);

    /**
     * Offline phase alone: train templates from ground-truth traces,
     * consuming FingerprintConfig::trainVisits visits per site from
     * @p rng. evaluate() == train() + trials() on one shared stream.
     */
    void train(Rng &rng);

    /**
     * One online trial: capture a live visit of @p site with @p rng's
     * stream and classify it. Requires train() (the classifier needs
     * templates). Exposed so a campaign task can run exactly one
     * trial on a private testbed under a task-split seed.
     */
    TrialOutcome trial(std::size_t site, Rng &rng);

    /** Train templates offline and run the closed-world evaluation. */
    FingerprintResult evaluate();

    /** The trained classifier (valid after evaluate()). */
    const CorrelationClassifier &classifier() const { return clf_; }

    /** Probe rounds executed by every captureVisit() so far. */
    std::uint64_t probeRounds() const { return probeRounds_; }

  private:
    testbed::Testbed &tb_;
    const WebsiteDb &db_;
    FingerprintConfig cfg_;
    CorrelationClassifier clf_;
    std::uint64_t probeRounds_ = 0;

    /** Per-queue ring sequences, possibly perturbed. */
    std::vector<std::vector<std::size_t>> chaseSeqs_;

    /**
     * chaseSeqs_ with each queue's sequence rotated so its chase
     * starts at that ring's head.
     */
    std::vector<std::vector<std::size_t>> rotatedSequences() const;
};

} // namespace pktchase::fingerprint

#endif // PKTCHASE_FINGERPRINT_ATTACK_HH
