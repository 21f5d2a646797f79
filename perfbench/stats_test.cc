/**
 * @file
 * Tests of the benchmark's own statistics (stats.hh): percentile
 * choice, due-time latency, the open-loop honesty check and the
 * seed-determinism of schedules and inputs.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/random.hh"
#include "compress/compressed_layer.hh"
#include "nn/generate.hh"
#include "stats.hh"
#include "workloads/suite.hh"

namespace perfbench {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0); // 1..n
    return v;
}

TEST(Percentile, NearestRank)
{
    const std::vector<double> v = ramp(100);
    EXPECT_EQ(quantile(v, 0.5), 50.0);
    EXPECT_EQ(quantile(v, 0.9), 90.0);
    EXPECT_EQ(quantile(v, 0.99), 99.0);
    EXPECT_EQ(quantile(v, 1.0), 100.0);
    EXPECT_EQ(quantile(v, 0.0), 1.0);
    EXPECT_EQ(quantile({}, 0.5), 0.0);
    // Order does not matter.
    EXPECT_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(1000, 0.99), 10u);
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);

    EXPECT_EQ(supportedQuantile(19), 0.0); // median has 9 beyond
    EXPECT_EQ(supportedQuantile(20), 0.5);
    EXPECT_EQ(supportedQuantile(99), 0.5); // p90 has 9 beyond
    EXPECT_EQ(supportedQuantile(100), 0.9);
    EXPECT_EQ(supportedQuantile(999), 0.9);
    EXPECT_EQ(supportedQuantile(1000), 0.99);
    EXPECT_EQ(supportedQuantile(10000), 0.999);
    EXPECT_EQ(supportedQuantile(100000), 0.9999);
}

TEST(Percentile, TailReportsSampleCountAndSupport)
{
    const Tail p99 = tail(ramp(500), 0.99);
    EXPECT_EQ(p99.n, 500u);
    EXPECT_EQ(p99.value, 495.0);
    EXPECT_FALSE(p99.supported);
    const Tail p90 = tail(ramp(500), 0.9);
    EXPECT_TRUE(p90.supported);
}

TEST(DueTime, LatencyCountsTheGeneratorStall)
{
    // Due at 1.0 s, sent late at 1.5 s, done at 1.6 s: the request
    // waited 600 ms for its answer, not 100 ms.
    EXPECT_DOUBLE_EQ(dueLatencyUs(1.0, 1.6), 600000.0);
    EXPECT_NEAR(dueLatencyUs(2.0, 2.000125), 125.0, 1e-6);
}

TEST(Schedule, SameSeedSameSchedule)
{
    const auto a = poissonSchedule(42, 100.0, 5.0);
    const auto b = poissonSchedule(42, 100.0, 5.0);
    const auto c = poissonSchedule(43, 100.0, 5.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_GE(a.front(), 0.0);
    EXPECT_LT(a.back(), 5.0);
    // ~500 arrivals at 100/s for 5 s.
    EXPECT_NEAR(static_cast<double>(a.size()), 500.0, 80.0);
    EXPECT_TRUE(poissonSchedule(1, 0.0, 5.0).empty());
}

TEST(Schedule, DerivedSeedsAreStableAndDistinct)
{
    EXPECT_EQ(deriveSeed(7, "load"), deriveSeed(7, "load"));
    EXPECT_NE(deriveSeed(7, "load"), deriveSeed(8, "load"));
    EXPECT_NE(deriveSeed(7, "load"), deriveSeed(7, "lone"));
    SplitMix x(9), y(9);
    for (int i = 0; i < 100; ++i) {
        const double u = x.uniform();
        EXPECT_EQ(u, y.uniform());
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Inputs, SameSeedSameFramesAndWeights)
{
    // The workloads draw frames and weights from eie::Rng streams
    // seeded by deriveSeed(run seed, label).
    const auto frame = [](std::uint64_t seed) {
        eie::Rng rng(deriveSeed(seed, "small-frames"));
        return eie::nn::makeActivations(1024, 0.35, rng);
    };
    EXPECT_EQ(frame(5), frame(5));
    EXPECT_NE(frame(5), frame(6));

    const auto weights = [](std::uint64_t seed) {
        eie::workloads::SuiteRunner runner(deriveSeed(seed, "alexnet"));
        return runner.layer(eie::workloads::findBenchmark("Alex-8"))
            .storage()
            .totalEntries();
    };
    EXPECT_EQ(weights(5), weights(5));
}

TEST(Throughput, ClosedLoopRateIsCallersOverMeanLatency)
{
    // Two callers at 500 us a frame complete 4000 frames/s.
    EXPECT_NEAR(closedLoopRate(2, std::vector<double>(100, 500.0)), 4000.0,
                1e-9);
    // Sixteen callers served in full batches of 16 every 100 ms: each
    // waits one sweep, 160 frames/s however the sweeps fall.
    EXPECT_NEAR(closedLoopRate(16, std::vector<double>(48, 1e5)), 160.0,
                1e-9);
    // A stall that holds one of ten frames for 5 ms more costs the
    // loop that time.
    std::vector<double> stalled(10, 500.0);
    stalled[3] += 5000.0;
    EXPECT_NEAR(closedLoopRate(1, stalled), 1e6 * 10 / 10000.0, 1e-9);
    EXPECT_EQ(closedLoopRate(4, {}), 0.0);
}

/** One round on @p due, sent on time, each completing @p service_s
 *  after the previous one or after its own arrival. */
OpenLoopRound
servedRound(const std::vector<double> &due, double duration_s,
            double service_s)
{
    OpenLoopRound r{due, due, std::vector<double>(due.size()), duration_s};
    double free_at = 0.0;
    for (std::size_t i = 0; i < due.size(); ++i) {
        free_at = std::max(free_at, due[i]) + service_s;
        r.done[i] = free_at;
    }
    return r;
}

TEST(Honesty, OnTimeGeneratorIsValid)
{
    const auto due = poissonSchedule(1, 200.0, 2.0);
    const Honesty h =
        checkOpenLoop({servedRound(due, 2.0, 0.001)}, 0.01, 0.002);
    EXPECT_TRUE(h.valid) << h.reason;
    EXPECT_NEAR(h.offered_per_s, 200.0, 40.0);
    EXPECT_NEAR(h.achieved_per_s, h.offered_per_s, 0.1 * h.offered_per_s);
    EXPECT_GT(h.worst_round_frac, 0.9);
}

TEST(Honesty, LateGeneratorIsInvalid)
{
    const auto due = poissonSchedule(2, 200.0, 2.0);
    OpenLoopRound r{due, due, due, 2.0};
    for (std::size_t i = 0; i < due.size(); ++i) {
        r.sent[i] += 0.004; // 4 ms late, gaps average 5 ms
        r.done[i] = r.sent[i] + 0.001;
    }
    const Honesty h = checkOpenLoop({r}, 0.01, 0.002);
    EXPECT_FALSE(h.valid);
    EXPECT_NE(h.reason.find("generator"), std::string::npos);
}

TEST(Honesty, GrowingBacklogIsInvalid)
{
    // The server completes one request every 10 ms while they arrive
    // every ~5 ms: the queue, and the latency, grow all phase long.
    const auto due = poissonSchedule(3, 200.0, 2.0);
    const Honesty h =
        checkOpenLoop({servedRound(due, 2.0, 0.01)}, 0.01, 0.002);
    EXPECT_FALSE(h.valid);
    EXPECT_LT(h.achieved_per_s, 0.9 * h.offered_per_s);
}

TEST(Honesty, OverloadInEveryRoundIsInvalid)
{
    // Ten rounds, each at twice what the server completes, each drained
    // before the next starts: latency ramps up inside every round.
    std::vector<OpenLoopRound> rounds;
    OpenLoopRound joined;
    for (int k = 0; k < 10; ++k) {
        const auto due = poissonSchedule(100 + k, 200.0, 0.5);
        rounds.push_back(servedRound(due, 0.5, 0.01));
        const OpenLoopRound &r = rounds.back();
        for (std::size_t i = 0; i < r.due.size(); ++i) {
            joined.due.push_back(joined.duration_s + r.due[i]);
            joined.sent.push_back(joined.duration_s + r.sent[i]);
            joined.done.push_back(joined.duration_s + r.done[i]);
        }
        joined.duration_s += r.duration_s;
    }
    const Honesty h = checkOpenLoop(rounds, 0.01, 0.002);
    EXPECT_FALSE(h.valid);
    EXPECT_EQ(h.reason.rfind("round 0:", 0), 0u) << h.reason;
    EXPECT_LT(h.worst_round_frac, 0.6);
    // The same requests judged as one joined stretch: both ends of the
    // phase look alike, so neither the latency slope nor the backlog
    // shows. That is why rate and backlog are judged per round.
    EXPECT_TRUE(checkOpenLoop({joined}, 0.01, 0.002).valid);
}

TEST(Honesty, EveryRoundOnTimeIsValid)
{
    std::vector<OpenLoopRound> rounds;
    for (int k = 0; k < 10; ++k)
        rounds.push_back(
            servedRound(poissonSchedule(200 + k, 200.0, 0.5), 0.5, 0.001));
    rounds.push_back({}); // a round with no arrivals offers nothing
    const Honesty h = checkOpenLoop(rounds, 0.01, 0.002);
    EXPECT_TRUE(h.valid) << h.reason;
    EXPECT_NEAR(h.offered_per_s, 200.0, 30.0);
    EXPECT_EQ(checkOpenLoop({}, 0.01, 0.002).reason, "no requests");
}

} // namespace
} // namespace perfbench
