/**
 * @file
 * The benchmark's own statistics: seeded schedules, due-time
 * latency, percentile choice and the open-loop honesty check.
 * Header-only and free of library dependencies so stats_test.cc
 * checks it in isolation.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64: a small, portable, fully specified generator, so a
 *  seed yields the same schedule and inputs with any standard
 *  library. */
class SplitMix
{
  public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

  private:
    std::uint64_t state_;
};

/** Derive an independent stream seed from a run seed and a label. */
inline std::uint64_t
deriveSeed(std::uint64_t seed, const std::string &label)
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    for (const char c : label)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    SplitMix mix(seed ^ h);
    return mix.next();
}

/**
 * Open-loop Poisson arrival offsets (seconds from the phase start)
 * at @p rate_per_s, covering [0, @p duration_s). The same seed gives
 * the same schedule.
 */
inline std::vector<double>
poissonSchedule(std::uint64_t seed, double rate_per_s, double duration_s)
{
    std::vector<double> due;
    if (rate_per_s <= 0.0 || duration_s <= 0.0)
        return due;
    SplitMix rng(seed);
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate_per_s;
        if (t >= duration_s)
            break;
        due.push_back(t);
    }
    return due;
}

/**
 * Latency of an open-loop request, timed from when it was due rather
 * than when it was sent: a generator stall then shows up in every
 * request it delayed. Times are seconds on one clock; the result is
 * microseconds.
 */
inline double
dueLatencyUs(double due_s, double done_s)
{
    return 1e6 * (done_s - due_s);
}

/** Nearest-rank quantile of an ascending sample (0 when empty). */
inline double
nearestRank(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** Nearest-rank quantile of an unsorted sample. */
inline double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    return nearestRank(values, q);
}

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Arithmetic mean (0 when empty). */
inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/** Samples strictly above the nearest-rank @p q quantile's rank. */
inline std::size_t
samplesBeyond(std::size_t n, double q)
{
    const std::size_t rank = std::clamp<std::size_t>(
        static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(n) - 1e-9)),
        std::min<std::size_t>(n, 1), n);
    return n - rank;
}

/**
 * The highest of the quantiles 0.5, 0.9, 0.99, 0.999 and 0.9999 that
 * still has at least @p min_beyond samples beyond it in a sample of
 * @p n; 0 when even the median lacks them.
 */
inline double
supportedQuantile(std::size_t n, std::size_t min_beyond = 10)
{
    double best = 0.0;
    for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999})
        if (samplesBeyond(n, q) >= min_beyond)
            best = q;
    return best;
}

/** A reported tail: the asked quantile, its value, the sample count
 *  and whether the sample supports it (>= 10 samples beyond). */
struct Tail
{
    double q = 0.0;
    double value = 0.0;
    std::size_t n = 0;
    bool supported = false;
};

inline Tail
tail(const std::vector<double> &values, double q)
{
    Tail t;
    t.q = q;
    t.n = values.size();
    t.value = quantile(values, q);
    t.supported = t.n > 0 && supportedQuantile(t.n) >= q;
    return t;
}

/**
 * Throughput (per second) of a closed loop of @p callers that call back
 * to back, from the latencies (microseconds) of their frames: by
 * Little's law the loop completes callers / mean latency frames per
 * second. Unlike completions counted over a stretch of wall time, this
 * does not depend on where batched completions fall against the
 * stretch's ends. 0 without frames.
 */
inline double
closedLoopRate(unsigned callers, const std::vector<double> &latency_us)
{
    const double m = mean(latency_us);
    return m > 0.0 ? 1e6 * static_cast<double>(callers) / m : 0.0;
}

/** One round of an open-loop phase: request i was due at due[i], sent
 *  at sent[i] and completed at done[i] (seconds from the round's
 *  start, due ascending) on a schedule of @p duration_s. Each round's
 *  collector drains its requests before the next round starts. */
struct OpenLoopRound
{
    std::vector<double> due, sent, done;
    double duration_s = 0.0;
};

/**
 * Open-loop honesty of one phase, from its rounds. The phase is
 * invalid when:
 *  - the generator fell behind: the median send lateness over all
 *    rounds is above a tenth of the mean gap;
 *  - the generator stalled: the 99th-percentile send lateness over all
 *    rounds is above @p max_late_s;
 *  - in any round, the achieved rate is under 90% of the offered one.
 *    A server that completes requests at a share f of the rate they
 *    arrive makes their latency grow by (1 - f) / f seconds per second,
 *    so a round's f is 1 / (1 + slope), the slope taken between the
 *    median latencies and due times of its first and last quarters.
 *    Unlike completions over the round's span, this does not charge the
 *    last request's own latency as lost rate;
 *  - in any round, the backlog grew: the last quarter's median due-time
 *    latency is over three times the first quarter's plus @p slack_s.
 * Rate and backlog are judged per round. Joined end to end, rounds that
 * each drain their own backlog look alike at both ends of the phase,
 * so an overloaded server would pass.
 */
struct Honesty
{
    double offered_per_s = 0.0;  ///< requests over schedule time
    double achieved_per_s = 0.0; ///< offered times the mean round share
    double worst_round_frac = 1.0; ///< lowest achieved/offered of a round
    double late_p50_us = 0.0;
    double late_p99_us = 0.0;
    bool valid = true;
    std::string reason;
};

inline Honesty
checkOpenLoop(const std::vector<OpenLoopRound> &rounds, double max_late_s,
              double slack_s)
{
    Honesty h;
    const auto fail = [&h](const std::string &reason) {
        if (h.valid) {
            h.valid = false;
            h.reason = reason;
        }
    };
    std::vector<double> late;
    double duration = 0.0, frac_sum = 0.0, frac_weight = 0.0;
    for (std::size_t k = 0; k < rounds.size(); ++k) {
        const OpenLoopRound &r = rounds[k];
        const std::size_t n = r.due.size();
        duration += r.duration_s;
        if (n == 0)
            continue;
        if (r.sent.size() != n || r.done.size() != n) {
            fail("round " + std::to_string(k) + ": incomplete record");
            continue;
        }
        std::vector<double> lat(n);
        for (std::size_t i = 0; i < n; ++i) {
            late.push_back(r.sent[i] - r.due[i]);
            lat[i] = r.done[i] - r.due[i];
        }
        if (n < 8)
            continue; // too few to judge rate or backlog
        const std::size_t quarter = n / 4;
        const auto firstQuarter = [quarter](const std::vector<double> &v) {
            return median(
                std::vector<double>(v.begin(), v.begin() + quarter));
        };
        const auto lastQuarter = [quarter](const std::vector<double> &v) {
            return median(std::vector<double>(v.end() - quarter, v.end()));
        };
        const double first = firstQuarter(lat), last = lastQuarter(lat);
        const double elapsed = lastQuarter(r.due) - firstQuarter(r.due);
        const double slope =
            elapsed > 0.0 ? std::max(0.0, (last - first) / elapsed) : 0.0;
        const double frac = 1.0 / (1.0 + slope);
        h.worst_round_frac = std::min(h.worst_round_frac, frac);
        frac_sum += frac * static_cast<double>(n);
        frac_weight += static_cast<double>(n);
        if (frac < 0.9)
            fail("round " + std::to_string(k) +
                 ": achieved rate under 90% of offered");
        if (last > 3.0 * first + slack_s)
            fail("round " + std::to_string(k) +
                 ": backlog grew (last-quarter latency)");
    }
    if (late.empty() || duration <= 0.0) {
        h.valid = false;
        h.reason = "no requests";
        return h;
    }
    const double n = static_cast<double>(late.size());
    h.offered_per_s = n / duration;
    h.achieved_per_s = frac_weight > 0.0
        ? h.offered_per_s * frac_sum / frac_weight
        : h.offered_per_s;
    h.late_p50_us = 1e6 * median(late);
    h.late_p99_us = 1e6 * quantile(late, 0.99);
    if (h.late_p50_us * 1e-6 > 0.1 * duration / n)
        fail("generator fell behind (median send lateness)");
    else if (h.late_p99_us * 1e-6 > max_late_s)
        fail("generator stalled (p99 send lateness)");
    return h;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
