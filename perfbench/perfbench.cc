/**
 * @file
 * The EIE host engine's end-to-end benchmark.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1 --workdir D
 *
 * Workloads (see perfbench/README.md for why each was chosen):
 *
 *   alexnet_fc     FC6->FC7->FC8 (Table III Alex-6/7/8) as one
 *                  in-memory model on local:compiled,residency=auto.
 *   small_fc_http  a 1024x1024 9% FC layer behind the http:// gateway
 *                  (bearer-token tenant) in front of a tcp daemon.
 *
 * Every workload runs three phases: `lone` (one caller, one frame at
 * a time), `load` (open-loop Poisson frames at a fixed rate, timed
 * from each frame's due time) and `peak` (a fixed number of
 * closed-loop callers). Every output is checked against the scalar
 * oracle.
 *
 * With --trace 0 the last stdout line is a JSON object with the
 * end-to-end metrics. With --trace 1 the same traffic runs twice,
 * untraced and then traced: the traced pass wraps each Client call in
 * the benchmark's own spans, joins them by trace id with the
 * spans the serving stack records into obs::processTraceRing(),
 * replays kernel::runBatch per compiled layer at the formed batch
 * sizes, and reports per-layer metrics plus a chrome-trace file.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client/client.hh"
#include "common/random.hh"
#include "compress/compressed_layer.hh"
#include "core/functional.hh"
#include "core/kernel/compiled_layer.hh"
#include "core/kernel/executor.hh"
#include "core/kernel/variant.hh"
#include "core/plan.hh"
#include "gateway/gateway.hh"
#include "gateway/tenants.hh"
#include "nn/generate.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/cluster.hh"
#include "serve/registry.hh"
#include "serve/tcp.hh"
#include "stats.hh"
#include "workloads/suite.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace eie;
namespace fs = std::filesystem;
using perfbench::deriveSeed;
using perfbench::mean;
using perfbench::median;
using perfbench::quantile;

// ------------------------------------------------------------ basics

/** Benchmark clock: microseconds on the trace epoch, so the
 *  benchmark's own spans and the program's share one axis. */
double
nowUs()
{
    return obs::traceNowUs();
}

/** Wait until @p t_us: sleep to within the timer's overshoot, then
 *  spin, so an open-loop generator sends within a microsecond or two
 *  of each due time. */
void
sleepUntilUs(double t_us)
{
    constexpr double kSpinUs = 200.0;
    const double wait = t_us - nowUs();
    if (wait > kSpinUs)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::micro>(wait - kSpinUs));
    while (nowUs() < t_us) {
    }
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "perfbench: " << message << "\n";
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/run";
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            die("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace" && (value == "0" || value == "1"))
            args.trace = value == "1";
        else if (key == "--workdir")
            args.workdir = value;
        else if (key == "--commit")
            args.commit = value;
        else
            die("unknown flag " + key);
    }
    if (args.seconds <= 0)
        die("--seconds must be positive");
    return args;
}

// ------------------------------------------------------------ calls

/** Which transport a call took (decides which layers it crossed). */
enum class Via { Local, Http };

/** One timed Client::infer/submit call, recorded by the caller. */
struct Call
{
    std::string model; ///< the model it ran
    Via via = Via::Local;
    std::uint64_t trace_id = 0;
    double start_us = 0.0;
    double end_us = 0.0;
};

/** Calls of one phase (appended from several threads). */
class CallLog
{
  public:
    void
    add(Call call)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        calls_.push_back(std::move(call));
    }
    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }
    std::vector<Call>
    take()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(calls_);
    }

  private:
    bool enabled_ = false;
    std::mutex mutex_;
    std::vector<Call> calls_;
};

/** Drains obs::processTraceRing() well before its 8192 spans wrap. */
class RingDrain
{
  public:
    RingDrain()
    {
        obs::processTraceRing().clear();
        thread_ = std::thread([this] {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!stop_) {
                cv_.wait_for(lock, std::chrono::milliseconds(20));
                drainLocked();
            }
            drainLocked();
        });
    }
    ~RingDrain() { finish(); }
    RingDrain(const RingDrain &) = delete;
    RingDrain &operator=(const RingDrain &) = delete;

    std::vector<obs::Span>
    finish()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
        return std::move(spans_);
    }

  private:
    void
    drainLocked()
    {
        obs::SpanRing &ring = obs::processTraceRing();
        std::vector<obs::Span> got = ring.snapshot();
        ring.clear();
        spans_.insert(spans_.end(),
                      std::make_move_iterator(got.begin()),
                      std::make_move_iterator(got.end()));
    }

    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::vector<obs::Span> spans_;
    std::thread thread_;
};

// ------------------------------------------------------------ phases

/** What one phase measured. */
struct PhaseResult
{
    std::string name;
    std::vector<double> latency_us; ///< per frame (due-time on load)
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wall_s = 0.0;
    bool open_loop = false;
    /** Open loop: each round's due, send and completion times,
     *  checked round by round once the phase is merged. */
    std::vector<perfbench::OpenLoopRound> rounds;
    perfbench::Honesty honesty;
    /** Closed loop: how many callers ran it (0 for an open loop). */
    unsigned callers = 0;
    /** Each round's median latency and frame rate (one per slice). */
    std::vector<double> round_p50_us, round_fps;
    std::vector<Call> calls; ///< traced pass only
    double begin_us = 0.0, end_us = 0.0;

    double
    fps() const
    {
        return wall_s > 0 ? static_cast<double>(latency_us.size()) /
                                wall_s
                          : 0.0;
    }
};

/** A frame workload: `fn(i)` performs frame i (recording its call
 *  into the log) and returns the frame's latency in microseconds, or
 *  a negative value when it failed or differed from the oracle. */
using FrameFn = std::function<double(std::uint64_t)>;

PhaseResult
runLone(const std::string &name, const FrameFn &fn, double seconds)
{
    PhaseResult r;
    r.name = name;
    r.callers = 1;
    r.begin_us = nowUs();
    const double stop_us = r.begin_us + 1e6 * seconds;
    for (std::uint64_t i = 0; nowUs() < stop_us; ++i) {
        const double latency = fn(i);
        ++r.attempted;
        if (latency >= 0)
            r.latency_us.push_back(latency);
        else
            ++r.failed;
    }
    r.end_us = nowUs();
    r.wall_s = 1e-6 * (r.end_us - r.begin_us);
    return r;
}

/** Closed loop: @p callers threads, each calling back to back. */
PhaseResult
runPeak(const std::string &name, const FrameFn &fn, double seconds,
        unsigned callers)
{
    PhaseResult r;
    r.name = name;
    r.callers = callers;
    std::mutex mutex;
    std::atomic<std::uint64_t> next{0};
    r.begin_us = nowUs();
    const double stop_us = r.begin_us + 1e6 * seconds;
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < callers; ++c)
        threads.emplace_back([&] {
            std::vector<double> mine;
            std::uint64_t attempted = 0, failed = 0;
            while (nowUs() < stop_us) {
                const std::uint64_t i = next.fetch_add(1);
                const double latency = fn(i);
                ++attempted;
                if (latency >= 0)
                    mine.push_back(latency);
                else
                    ++failed;
            }
            std::lock_guard<std::mutex> lock(mutex);
            r.latency_us.insert(r.latency_us.end(), mine.begin(),
                                mine.end());
            r.attempted += attempted;
            r.failed += failed;
        });
    for (std::thread &t : threads)
        t.join();
    r.end_us = nowUs();
    r.wall_s = 1e-6 * (r.end_us - r.begin_us);
    return r;
}

/** An asynchronously submitted frame: `submit(i)` starts frame i and
 *  returns a waiter that blocks until it is done and reports whether
 *  it matched the oracle. */
using Waiter = std::function<bool()>;
using SubmitFn = std::function<Waiter(std::uint64_t)>;

/** Longest 99th-percentile send lateness an open-loop phase may
 *  show. Shorter host stalls are charged to the due-time latency of
 *  every request they delayed; a generator that stalls longer than
 *  this no longer offers the rate it claims. */
constexpr double kMaxStallS = 0.025;

/** Latency growth below this is not counted as a growing backlog. */
constexpr double kBacklogSlackS = 0.004;

/** Open loop: a generator sends at Poisson due times regardless of
 *  replies; a collector waits for them in order. */
PhaseResult
runLoad(const std::string &name, const SubmitFn &submit, double seconds,
        double rate, std::uint64_t seed)
{
    PhaseResult r;
    r.name = name;
    r.open_loop = true;
    const std::vector<double> due_s =
        perfbench::poissonSchedule(seed, rate, seconds);
    const std::size_t n = due_s.size();
    std::vector<double> sent(n), done(n);
    std::vector<char> ok(n, 0);

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, Waiter>> pending;
    bool generator_done = false;

    r.begin_us = nowUs();
    const double t0 = r.begin_us;
    std::thread collector([&] {
        for (;;) {
            std::pair<std::size_t, Waiter> item;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] {
                    return !pending.empty() || generator_done;
                });
                if (pending.empty())
                    return;
                item = std::move(pending.front());
                pending.pop_front();
            }
            ok[item.first] = item.second() ? 1 : 0;
            done[item.first] = 1e-6 * (nowUs() - t0);
        }
    });
    for (std::size_t i = 0; i < n; ++i) {
        sleepUntilUs(t0 + 1e6 * due_s[i]);
        sent[i] = 1e-6 * (nowUs() - t0);
        Waiter waiter = submit(i);
        {
            std::lock_guard<std::mutex> lock(mutex);
            pending.emplace_back(i, std::move(waiter));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        generator_done = true;
    }
    cv.notify_one();
    collector.join();
    r.end_us = nowUs();
    r.wall_s = 1e-6 * (r.end_us - r.begin_us);

    for (std::size_t i = 0; i < n; ++i) {
        ++r.attempted;
        if (ok[i])
            r.latency_us.push_back(
                perfbench::dueLatencyUs(due_s[i], done[i]));
        else
            ++r.failed;
    }
    r.rounds.push_back({due_s, std::move(sent), std::move(done), seconds});
    return r;
}

/**
 * Fold @p slice into @p into (same phase, a later round). Latencies,
 * calls and open-loop rounds concatenate; counts and measured wall
 * time add up.
 */
void
mergePhase(PhaseResult &into, PhaseResult slice)
{
    slice.round_p50_us = {median(slice.latency_us)};
    slice.round_fps = {slice.callers > 0
                           ? perfbench::closedLoopRate(slice.callers,
                                                       slice.latency_us)
                           : slice.fps()};
    if (into.name.empty()) {
        into = std::move(slice);
        return;
    }
    into.round_p50_us.push_back(slice.round_p50_us[0]);
    into.round_fps.push_back(slice.round_fps[0]);
    into.latency_us.insert(into.latency_us.end(), slice.latency_us.begin(),
                           slice.latency_us.end());
    into.calls.insert(into.calls.end(), slice.calls.begin(),
                      slice.calls.end());
    into.attempted += slice.attempted;
    into.failed += slice.failed;
    into.wall_s += slice.wall_s;
    into.end_us = slice.end_us;
    into.rounds.insert(into.rounds.end(), slice.rounds.begin(),
                       slice.rounds.end());
}

// ------------------------------------------------------------ setup

core::EieConfig
machine()
{
    return core::EieConfig{}; // 64 PE, the paper's configuration
}

unsigned
nproc()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Set-ups timed per run; setup_s is their median. */
constexpr int kSetupReps = 7;

/** Median of @p reps timed set-ups; `once()` returns seconds. */
double
medianSetup(int reps, const std::function<double()> &once)
{
    std::vector<double> s;
    for (int i = 0; i < reps; ++i)
        s.push_back(once());
    return median(s);
}

/** "Alex-6" -> "alex6": the metric key of a Table III layer. */
std::string
layerKey(const std::string &bench_name)
{
    std::string key;
    for (const char c : bench_name)
        if (c != '-')
            key += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
    return key;
}

/** A compiled layer to replay in the traced run. */
struct ReplayLayer
{
    std::string key;
    const core::LayerPlan *plan = nullptr;
    core::kernel::Residency residency =
        core::kernel::Residency::Decoded;
    /** Which calls' formed batches this layer sees. */
    std::string model;
    /** Nonzero share of the replayed input activations. */
    double act_density = 1.0;
};

/** What every workload hands to the phase runner and the report. */
struct Workload
{
    std::string name;
    double setup_s = 0.0;
    double resident_mb = 0.0;
    std::function<double()> resident; ///< re-read after the phases
    std::vector<ReplayLayer> layers;

    /** Run lone/load/peak for @p seconds total: one round. */
    std::function<std::vector<PhaseResult>(double, std::uint64_t)> phases;
    /** Rounds per pass. Each round runs every phase for its share of
     *  the round, so each phase samples the whole run rather than one
     *  stretch of it (the host's speed drifts over seconds). A round's
     *  open-loop slice must still span many sweeps for its honesty
     *  check to mean anything. */
    int rounds = 20;
    /** Traced pass only: the client, serve and gateway costs from
     *  paired frames, and registry load times. */
    std::function<void(std::map<std::string, double> &,
                       std::vector<obs::Span> &)>
        extra_traced = [](auto &, auto &) {};
    CallLog *log = nullptr;
};

/** Phase lengths as shares of the run. */
struct Shares
{
    double lone = 0.25, load = 0.45, peak = 0.30;
};

/** Frame-style request over any Client, checked bit-exact. */
struct FrameClient
{
    client::Client *client = nullptr;
    std::string model;
    Via via = Via::Local;
    const std::vector<std::vector<std::int64_t>> *inputs = nullptr;
    const std::vector<std::vector<std::int64_t>> *expected = nullptr;
    CallLog *log = nullptr;

    std::size_t
    pick(std::uint64_t i) const
    {
        return static_cast<std::size_t>(i % inputs->size());
    }

    bool
    check(const client::InferenceResult &result, std::size_t k) const
    {
        return result.ok() && result.outputs.size() == 1 &&
            result.outputs[0] == (*expected)[k];
    }

    double
    call(std::uint64_t i) const
    {
        const std::size_t k = pick(i);
        client::InferenceRequest request;
        request.model = model;
        request.fixed.push_back((*inputs)[k]);
        const double t0 = nowUs();
        const client::InferenceResult result = client->infer(request);
        const double t1 = nowUs();
        if (log->enabled())
            log->add({model, via,
                      result.trace_ids.empty() ? 0 : result.trace_ids[0],
                      t0, t1});
        return check(result, k) ? t1 - t0 : -1.0;
    }

    Waiter
    submit(std::uint64_t i) const
    {
        const std::size_t k = pick(i);
        client::InferenceRequest request;
        request.model = model;
        request.fixed.push_back((*inputs)[k]);
        const double t0 = nowUs();
        auto future = std::make_shared<
            std::future<client::InferenceResult>>(
            client->submit(std::move(request)));
        return [this, future, k, t0] {
            const client::InferenceResult result = future->get();
            const double t1 = nowUs();
            if (log->enabled())
                log->add({model, via,
                          result.trace_ids.empty() ? 0
                                                   : result.trace_ids[0],
                          t0, t1});
            return check(result, k);
        };
    }
};

/** Seeded activation frames for @p layers' input and their oracle
 *  outputs through the whole stack (FunctionalModel::run). */
void
makeFrames(std::uint64_t seed, std::size_t count, double act_density,
           const std::vector<const core::LayerPlan *> &stack,
           std::vector<std::vector<std::int64_t>> &inputs,
           std::vector<std::vector<std::int64_t>> &expected)
{
    const core::FunctionalModel oracle(machine());
    Rng rng(seed);
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::int64_t> x = oracle.quantizeInput(
            nn::makeActivations(stack.front()->input_size, act_density,
                                rng));
        inputs.push_back(x);
        for (const core::LayerPlan *plan : stack)
            x = oracle.run(*plan, x).output_raw;
        expected.push_back(std::move(x));
    }
}

double
residentMbOfDirectory(const serve::ServingDirectory &directory)
{
    std::uint64_t bytes = 0;
    for (const auto &cluster : directory.statsSnapshot())
        if (!cluster.stats.shards.empty())
            for (const auto &layer : cluster.stats.shards[0].server.layers)
                bytes += layer.decoded_bytes + layer.compressed_bytes;
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ------------------------------------------------------------ spans

/** Program spans of one trace id. */
struct ServerSpans
{
    double enqueue = -1, form_end = -1, kernel_begin = -1,
           kernel_end = -1, reply_end = -1, shard_submit = -1;
    std::size_t batch = 0;

    bool
    complete() const
    {
        return enqueue >= 0 && reply_end >= 0 && kernel_end >= 0;
    }
};

std::map<std::uint64_t, ServerSpans>
indexSpans(const std::vector<obs::Span> &spans)
{
    std::map<std::uint64_t, ServerSpans> by_id;
    for (const obs::Span &s : spans) {
        ServerSpans &e = by_id[s.trace_id];
        if (s.name == "enqueue")
            e.enqueue = s.start_us;
        else if (s.name == "batch_form") {
            e.form_end = s.start_us + s.dur_us;
            if (s.arg.rfind("batch=", 0) == 0)
                e.batch = std::stoul(s.arg.substr(6));
        } else if (s.name == "kernel_run") {
            e.kernel_begin = s.start_us;
            e.kernel_end = s.start_us + s.dur_us;
        } else if (s.name == "reply")
            e.reply_end = s.start_us + s.dur_us;
        else if (s.name == "shard_submit")
            e.shard_submit = s.start_us;
    }
    return by_id;
}

/** One transport's figures over pairedFrames(). */
struct PathTiming
{
    double observed_us = 0.0; ///< median client-observed time
    double gap_us = 0.0; ///< median observed minus the server span
};

/**
 * Send @p count frames one at a time over each of @p clients in turn
 * (frame k over every client before frame k+1), check each output
 * bit-exact, and time each transport. The gap of a call is its
 * observed time minus the server span (enqueue -> reply) of the same
 * trace id; calls without one (http://) report only observed time.
 */
std::vector<PathTiming>
pairedFrames(const std::vector<client::Client *> &clients,
             const std::string &model,
             const std::vector<std::vector<std::int64_t>> &inputs,
             const std::vector<std::vector<std::int64_t>> &expected,
             std::size_t count)
{
    obs::SpanRing &ring = obs::processTraceRing();
    ring.clear();
    std::vector<obs::Span> spans;
    const auto drain = [&] {
        std::vector<obs::Span> got = ring.snapshot();
        ring.clear();
        spans.insert(spans.end(), got.begin(), got.end());
    };
    std::vector<std::vector<double>> observed(clients.size());
    std::vector<std::vector<std::pair<std::uint64_t, double>>> traced(
        clients.size());
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t k = i % inputs.size();
        for (std::size_t c = 0; c < clients.size(); ++c) {
            const double t0 = nowUs();
            const client::InferenceResult r =
                clients[c]->inferRaw(model, inputs[k]);
            const double t1 = nowUs();
            if (!r.ok() || r.outputs[0] != expected[k])
                die(model + ": paired frame differs from the oracle");
            observed[c].push_back(t1 - t0);
            if (!r.trace_ids.empty() && r.trace_ids[0] != 0)
                traced[c].push_back({r.trace_ids[0], t1 - t0});
        }
        if (i % 64 == 63) // well before the ring's 8192 spans wrap
            drain();
    }
    drain();
    const std::map<std::uint64_t, ServerSpans> by_id = indexSpans(spans);
    std::vector<PathTiming> out(clients.size());
    for (std::size_t c = 0; c < clients.size(); ++c) {
        std::vector<double> gaps;
        for (const auto &[id, t] : traced[c]) {
            const auto it = by_id.find(id);
            if (it != by_id.end() && it->second.complete())
                gaps.push_back(t - (it->second.reply_end -
                                    it->second.enqueue));
        }
        out[c] = {median(observed[c]), median(gaps)};
    }
    return out;
}

// --------------------------------------------------------- alexnet_fc

struct AlexnetFc
{
    static constexpr std::size_t kFrames = 16;
    static constexpr double kLoadRate = 25.0; ///< frames/s offered
    /** Batch-1 frames take ~60 ms: a longer lone share gives its p90
     *  the 100 samples it needs. */
    static constexpr Shares kShares{0.40, 0.35, 0.25};
    /** A sweep takes 50-120 ms, and 25 frames/s keeps the engine busy
     *  most of the time: a slice needs ~3 s (~30 sweeps, ~80 frames)
     *  before a slowdown of the host within it no longer reads as a
     *  growing backlog. 5 rounds give the load slices that. */
    static constexpr int kRounds = 5;

    std::vector<core::LayerPlan> plans;
    std::vector<std::vector<std::int64_t>> inputs, expected;
    std::unique_ptr<client::Client> client;
    CallLog log;
    FrameClient frames;

    void
    build(const Args &args, Workload &w)
    {
        workloads::SuiteRunner runner(deriveSeed(args.seed, "alexnet"));
        const core::EieConfig config = machine();
        for (const char *name : {"Alex-6", "Alex-7", "Alex-8"})
            plans.push_back(
                runner.plan(workloads::findBenchmark(name), config));
        std::vector<const core::LayerPlan *> stack;
        for (const core::LayerPlan &plan : plans)
            stack.push_back(&plan);
        makeFrames(deriveSeed(args.seed, "alexnet-frames"), kFrames,
                   workloads::findBenchmark("Alex-6").act_density,
                   stack, inputs, expected);

        client::ClientOptions options;
        options.config = config;
        options.models.push_back(client::LocalModel{"alexnet_fc", stack});
        w.setup_s = medianSetup(kSetupReps, [&] {
            client.reset();
            const double t0 = nowUs();
            client::Status status;
            client = client::Client::connect(
                "local:compiled,residency=auto", options, status);
            if (!client)
                die("connect: " + status.toString());
            const client::InferenceResult first =
                client->inferRaw("alexnet_fc", inputs[0]);
            const double t1 = nowUs();
            if (!first.ok() || first.outputs[0] != expected[0])
                die("alexnet_fc: first answer is not bit-exact");
            return 1e-6 * (t1 - t0);
        });
        frames = {client.get(), "alexnet_fc", Via::Local, &inputs,
                  &expected, &log};

        w.name = "alexnet_fc";
        w.rounds = kRounds;
        w.log = &log;
        w.resident = [this] {
            client::EndpointStats stats;
            client->stats(stats);
            std::uint64_t bytes = 0;
            for (const auto &layer : stats.layers)
                bytes += layer.decoded_bytes + layer.compressed_bytes;
            return static_cast<double>(bytes) / (1024.0 * 1024.0);
        };
        for (const core::LayerPlan &plan : plans)
            w.layers.push_back({layerKey(plan.name), &plan,
                                core::kernel::Residency::Auto,
                                "alexnet_fc", 0.35});
        w.phases = [this](double seconds, std::uint64_t seed) {
            std::vector<PhaseResult> out;
            const FrameFn fn = [this](std::uint64_t i) {
                return frames.call(i);
            };
            out.push_back(runLone("lone", fn, kShares.lone * seconds));
            out.push_back(runLoad(
                "load",
                [this](std::uint64_t i) { return frames.submit(i); },
                kShares.load * seconds, kLoadRate,
                deriveSeed(seed, "alexnet-load")));
            // A window of twice the batcher's max batch keeps every
            // sweep full while the previous one runs.
            out.push_back(
                runPeak("peak", fn, kShares.peak * seconds,
                        2 * engine::ServerOptions{}.max_batch));
            return out;
        };
        w.extra_traced = [this](std::map<std::string, double> &m,
                                std::vector<obs::Span> &) {
            // client.local_us: sequential frames, outside the phases.
            m["client.local_us"] =
                pairedFrames({client.get()}, "alexnet_fc", inputs,
                             expected, 24)[0]
                    .gap_us;
        };
    }
};

// --------------------------------------------------------- small_fc_http

/** A registry + ServingDirectory + TcpServer daemon in process. */
struct Daemon
{
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::ServingDirectory> directory;
    std::unique_ptr<serve::TcpServer> server;

    void
    start(const std::string &root)
    {
        registry = std::make_unique<serve::ModelRegistry>(root, machine());
        directory = std::make_unique<serve::ServingDirectory>(
            *registry, serve::ClusterOptions{});
        server = std::make_unique<serve::TcpServer>(*directory);
        server->start();
    }

    std::string
    endpoint() const
    {
        return "tcp://127.0.0.1:" + std::to_string(server->port());
    }

    void
    stop()
    {
        if (server)
            server->stop();
        if (directory)
            directory->stopAll();
        server.reset();
        directory.reset();
        registry.reset();
    }

    ~Daemon() { stop(); }
};

struct SmallFcHttp
{
    static constexpr std::size_t kRows = 1024, kCols = 1024;
    static constexpr double kDensity = 0.09;
    static constexpr std::size_t kFrames = 64;
    static constexpr double kLoadRate = 300.0; ///< frames/s offered
    static constexpr Shares kShares{};
    static constexpr const char *kToken = "perfbench-tenant";

    std::string root;
    std::shared_ptr<const serve::LoadedModel> loaded;
    std::vector<std::vector<std::int64_t>> inputs, expected;
    Daemon daemon;
    obs::MetricsRegistry gateway_metrics;
    std::unique_ptr<gateway::HttpGateway> gw;
    std::unique_ptr<client::Client> client;
    CallLog log;
    FrameClient frames;

    void
    stopStack()
    {
        client.reset();
        if (gw)
            gw->stop();
        gw.reset();
        daemon.stop();
    }

    ~SmallFcHttp() { stopStack(); }

    void
    build(const Args &args, Workload &w)
    {
        const core::EieConfig config = machine();
        root = args.workdir + "/registry_small_fc";
        fs::remove_all(root);
        {
            serve::ModelRegistry publisher(root, config);
            Rng rng(deriveSeed(args.seed, "small-weights"));
            nn::WeightGenOptions wopts;
            wopts.density = kDensity;
            compress::CompressionOptions copts;
            copts.interleave.n_pe = config.n_pe;
            publisher.publish(
                "small_fc", 1,
                compress::CompressedLayer::compress(
                    "small_fc",
                    nn::makeSparseWeights(kRows, kCols, wopts, rng),
                    copts)
                    .storage());
            loaded = publisher.load("small_fc");
        }
        makeFrames(deriveSeed(args.seed, "small-frames"), kFrames, 0.35,
                   {&loaded->plan()}, inputs, expected);

        w.setup_s = medianSetup(kSetupReps, [&] {
            stopStack();
            const double t0 = nowUs();
            daemon.start(root);
            gateway::GatewayOptions options;
            options.client.config = config;
            options.registry = &gateway_metrics;
            client::Status status;
            gw = gateway::HttpGateway::create(daemon.endpoint(), options,
                                              status);
            if (!gw)
                die("gateway: " + status.toString());
            // Quotas far above the offered traffic: the tenant path
            // (auth, token bucket, concurrency) runs on every request
            // but never refuses one.
            gw->tenants().load(gateway::loadTenantConfigs(
                std::string(R"({"tenants":[{"name":"bench","token":")") +
                kToken +
                R"(","rate_qps":100000,"burst":100000,"max_concurrent":256}]})"));
            client::ClientOptions copts;
            copts.config = config;
            client = client::Client::connect(
                "http://127.0.0.1:" + std::to_string(gw->port()) +
                    ",token=" + kToken,
                copts, status);
            if (!client)
                die("http connect: " + status.toString());
            const client::InferenceResult first =
                client->inferRaw("small_fc", inputs[0]);
            const double t1 = nowUs();
            if (!first.ok() || first.outputs[0] != expected[0])
                die("small_fc_http: first answer is not bit-exact");
            return 1e-6 * (t1 - t0);
        });
        frames = {client.get(), "small_fc", Via::Http, &inputs,
                  &expected, &log};

        w.name = "small_fc_http";
        w.log = &log;
        w.resident = [this] {
            return residentMbOfDirectory(*daemon.directory);
        };
        w.layers.push_back({"small_fc", &loaded->plan(),
                            core::kernel::Residency::Decoded, "small_fc",
                            0.35});
        w.phases = [this](double seconds, std::uint64_t seed) {
            std::vector<PhaseResult> out;
            const FrameFn fn = [this](std::uint64_t i) {
                return frames.call(i);
            };
            out.push_back(runLone("lone", fn, kShares.lone * seconds));
            out.push_back(runLoad(
                "load",
                [this](std::uint64_t i) { return frames.submit(i); },
                kShares.load * seconds, kLoadRate,
                deriveSeed(seed, "small-load")));
            // Two callers: every http:// request spawns client, gateway
            // and daemon threads, and one caller per core saturates
            // the host so far that its stalls decide the figure.
            out.push_back(runPeak("peak", fn, kShares.peak * seconds,
                                  std::min(2u, nproc())));
            return out;
        };
        w.extra_traced = [this](std::map<std::string, double> &m,
                                std::vector<obs::Span> &bench_spans) {
            // The same frames one at a time over http://, a direct
            // tcp:// connection to the same daemon and an in-process
            // local: client on the same registry. client.local_us is
            // what the Client API costs in process, serve.tcp_us what a
            // tcp:// call adds around the server span, gateway.us what
            // the http:// front door adds to a tcp:// call.
            client::ClientOptions copts;
            copts.config = machine();
            auto direct = client::Client::connectOrDie(daemon.endpoint(),
                                                       copts);
            auto local = client::Client::connectOrDie(
                "local:compiled,dir=" + root, copts);
            const std::vector<PathTiming> t = pairedFrames(
                {client.get(), direct.get(), local.get()}, "small_fc",
                inputs, expected, 300);
            direct->close();
            local->close();
            m["gateway.us"] = t[0].observed_us - t[1].observed_us;
            m["serve.tcp_us"] = t[1].gap_us;
            m["client.local_us"] = t[2].gap_us;
            m["gateway.refused"] = static_cast<double>(
                gateway_metrics.counter("eie_gateway_rejected_total")
                    .value());
            // serve.load_ms / serve.cluster_ms: a cold registry.
            timedLoad(root, {{"small_fc", nn::Nonlinearity::ReLU}}, m,
                      bench_spans);
        };
    }

    /** Cold ModelRegistry::load and ServingDirectory::cluster of
     *  @p models, wrapped in benchmark spans. */
    static void
    timedLoad(const std::string &root,
              const std::vector<std::pair<std::string, nn::Nonlinearity>>
                  &models,
              std::map<std::string, double> &m,
              std::vector<obs::Span> &bench_spans)
    {
        double load_us = 0.0, cluster_us = 0.0;
        {
            serve::ModelRegistry registry(root, machine());
            for (const auto &[name, nonlin] : models) {
                const double t0 = nowUs();
                if (!registry.load(name, 0, nonlin))
                    die("registry load failed: " + name);
                const double t1 = nowUs();
                load_us += t1 - t0;
                bench_spans.push_back({0, "ModelRegistry::load", "serve",
                                       t0, t1 - t0, 0, name});
            }
        }
        {
            serve::ModelRegistry registry(root, machine());
            serve::ServingDirectory directory(registry,
                                              serve::ClusterOptions{});
            for (const auto &[name, nonlin] : models) {
                std::string error;
                const double t0 = nowUs();
                if (!directory.cluster(name, 0, error, nonlin))
                    die("cluster build failed: " + error);
                const double t1 = nowUs();
                cluster_us += t1 - t0;
                bench_spans.push_back({0, "ServingDirectory::cluster",
                                       "serve", t0, t1 - t0, 0, name});
            }
            directory.stopAll();
        }
        m["serve.load_ms"] = 1e-3 * load_us;
        m["serve.cluster_ms"] = 1e-3 * cluster_us;
    }
};

// ------------------------------------------------------------ tracing

/** Memory bandwidth of this host: the best of a few single-thread
 *  STREAM triads a[i] = b[i] + s*c[i] over 3 x 32 MiB, counting 3
 *  moved doubles per element. */
double
streamTriadGbps()
{
    const std::size_t n = 4u << 20;
    std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        const double t0 = nowUs();
        const double s = 3.0 + rep;
        for (std::size_t i = 0; i < n; ++i)
            a[i] = b[i] + s * c[i];
        const double t1 = nowUs();
        best = std::max(best, 3.0 * 8.0 * static_cast<double>(n) /
                                  (1e3 * (t1 - t0)));
    }
    if (a[n / 2] <= 0.0)
        die("triad sanity");
    return best;
}

const std::vector<std::string> kAllLayers = {"alex6", "alex7", "alex8",
                                             "small_fc"};

/** Per compiled layer: replay runBatch at the formed batch sizes. */
void
replayKernels(const Workload &w,
              const std::map<std::string, std::map<std::size_t, std::size_t>>
                  &formed,
              double triad_gbps, std::map<std::string, double> &m,
              std::vector<obs::Span> &bench_spans, std::ostream &log)
{
    const core::EieConfig config = machine();
    const core::FunctionalModel quant(config);
    // alexnet chains its layers: layer k's inputs are layer k-1's
    // outputs at the same batch size.
    core::kernel::Batch chained;
    for (const ReplayLayer &layer : w.layers) {
        core::kernel::CompileOptions options;
        options.residency = layer.residency;
        const core::kernel::CompiledLayer compiled =
            core::kernel::CompiledLayer::compile(*layer.plan, config,
                                                 options);
        const auto it = formed.find(layer.model);
        std::map<std::size_t, std::size_t> sizes;
        if (it != formed.end())
            sizes = it->second;
        if (sizes.empty())
            sizes[1] = 1;
        // The most frequent formed sizes, up to four of them.
        std::vector<std::pair<std::size_t, std::size_t>> top(sizes.begin(),
                                                              sizes.end());
        std::sort(top.begin(), top.end(), [](auto a, auto b) {
            return a.second > b.second;
        });
        top.resize(std::min<std::size_t>(top.size(), 4));
        double weighted_us = 0.0, weighted_decode = 0.0, weight = 0.0;
        std::string variant;
        for (const auto &[batch_size, count] : top) {
            Rng rng(batch_size * 7919 + layer.plan->input_size);
            core::kernel::Batch inputs;
            const bool chain = !chained.empty() &&
                chained.size() >= batch_size &&
                chained[0].size() == layer.plan->input_size;
            for (std::size_t f = 0; f < batch_size; ++f)
                inputs.push_back(
                    chain ? chained[f]
                          : quant.quantizeInput(nn::makeActivations(
                                layer.plan->input_size,
                                layer.act_density, rng)));
            std::vector<double> sweeps, decodes;
            core::kernel::Batch out;
            for (int rep = 0; rep < 5; ++rep) {
                core::kernel::DispatchInfo info;
                const double t0 = nowUs();
                out = core::kernel::runBatch(compiled, inputs, nullptr,
                                             core::kernel::KernelVariant::Auto,
                                             &info);
                const double t1 = nowUs();
                sweeps.push_back(t1 - t0);
                decodes.push_back(info.decode_us);
                variant = core::kernel::kernelVariantName(info.variant);
                bench_spans.push_back({0, "kernel::runBatch", "kernel", t0,
                                       t1 - t0, 0,
                                       layer.key + " batch=" +
                                           std::to_string(batch_size)});
            }
            if (batch_size == top.front().first)
                chained = out;
            const double wgt = static_cast<double>(count);
            weighted_us += wgt * median(sweeps);
            weighted_decode += wgt * median(decodes);
            weight += wgt;
        }
        const double sweep_us = weighted_us / weight;
        const double gbps =
            static_cast<double>(compiled.residentStreamBytes()) /
            (1e3 * sweep_us);
        m["kernel." + layer.key + ".sweep_us"] = sweep_us;
        m["kernel." + layer.key + ".decode_us"] = weighted_decode / weight;
        m["kernel." + layer.key + ".gbps"] = gbps;
        m["kernel." + layer.key + ".roofline_frac"] = gbps / triad_gbps;
        log << "  kernel " << layer.key << ": variant=" << variant
            << " residency="
            << core::kernel::residencyName(compiled.residency)
            << " resident_bytes=" << compiled.residentStreamBytes()
            << " formed_batches=";
        for (const auto &[b, c] : top)
            log << b << "x" << c << " ";
        log << "(gbps and roofline_frac computed: resident bytes / "
               "sweep time)\n";
    }
}

/** Per-layer metrics of a traced pass. */
std::map<std::string, double>
analyseTrace(Workload &w, const std::vector<PhaseResult> &traced,
             std::vector<obs::Span> &program_spans,
             std::vector<obs::Span> &bench_spans, double triad_gbps,
             std::uint64_t shed, std::uint64_t dropped,
             std::ostream &log)
{
    std::map<std::string, double> m;
    for (const std::string &layer : kAllLayers)
        for (const char *what :
             {".sweep_us", ".decode_us", ".gbps", ".roofline_frac"})
            m["kernel." + layer + what] = 0.0;
    for (const char *name :
         {"serve.tcp_us", "serve.shard_submit_us", "serve.load_ms",
          "serve.cluster_ms", "gateway.us", "gateway.refused",
          "client.local_us"})
        m[name] = 0.0;
    // The client, serve and gateway layers' own costs, from frames sent
    // one at a time over each transport (see pairedFrames).
    w.extra_traced(m, bench_spans);
    const double client_us = m["client.local_us"];
    const double serve_us =
        m["serve.tcp_us"] > 0 ? m["serve.tcp_us"] - client_us : 0.0;
    const double gateway_us = m["gateway.us"];

    std::map<std::uint64_t, ServerSpans> by_id = indexSpans(program_spans);

    // Http calls carry no trace id to the daemon: join them by time
    // to the earliest unclaimed server request inside the call.
    std::vector<std::pair<double, std::uint64_t>> unclaimed;
    {
        std::set<std::uint64_t> known;
        for (const PhaseResult &p : traced)
            for (const Call &c : p.calls)
                known.insert(c.trace_id);
        for (const auto &[id, s] : by_id)
            if (!known.count(id) && s.complete())
                unclaimed.push_back({s.enqueue, id});
        std::sort(unclaimed.begin(), unclaimed.end());
    }
    std::vector<char> claimed(unclaimed.size(), 0);

    std::map<std::string, std::map<std::size_t, std::size_t>> formed;
    std::vector<double> queue_wait, lone_wait, kernel_run, shard_submit;
    double batch_requests = 0.0, batch_sweeps = 0.0;
    std::size_t joined = 0, unjoined = 0;

    for (const PhaseResult &phase : traced) {
        std::vector<double> observed, kernel, engine;
        std::size_t scan_from = 0;
        std::vector<Call> calls = phase.calls;
        std::sort(calls.begin(), calls.end(), [](auto &a, auto &b) {
            return a.start_us < b.start_us;
        });
        for (const Call &c : calls) {
            const ServerSpans *s = nullptr;
            if (c.via == Via::Http) {
                while (scan_from < unclaimed.size() &&
                       unclaimed[scan_from].first < c.start_us -
                           1e6)
                    ++scan_from;
                for (std::size_t k = scan_from; k < unclaimed.size(); ++k) {
                    if (unclaimed[k].first > c.end_us)
                        break;
                    const ServerSpans &cand = by_id[unclaimed[k].second];
                    if (!claimed[k] && cand.enqueue >= c.start_us &&
                        cand.reply_end <= c.end_us) {
                        claimed[k] = 1;
                        s = &cand;
                        break;
                    }
                }
            } else {
                const auto it = by_id.find(c.trace_id);
                if (it != by_id.end() && it->second.complete())
                    s = &it->second;
            }
            if (!s) {
                ++unjoined;
                continue;
            }
            ++joined;
            const double k = s->kernel_end - s->kernel_begin;
            observed.push_back(c.end_us - c.start_us);
            kernel.push_back(k);
            engine.push_back(s->reply_end - s->enqueue - k);
            queue_wait.push_back(s->form_end - s->enqueue);
            if (s->batch == 1)
                lone_wait.push_back(s->form_end - s->enqueue);
            kernel_run.push_back(k);
            if (s->shard_submit >= 0)
                shard_submit.push_back(s->enqueue - s->shard_submit);
            if (s->batch > 0) {
                ++formed[c.model][s->batch];
                batch_requests += 1.0;
                batch_sweeps += 1.0 / static_cast<double>(s->batch);
            }
        }
        // Each layer's self time from its own measurement: kernel and
        // engine from this phase's program spans, client, serve and
        // gateway from the paired frames. Means, so that they add up:
        // what they leave of the observed mean is time no layer
        // accounts for, such as contention outside the spans under
        // concurrent traffic.
        const Via via = calls.empty() ? Via::Local : calls.front().via;
        const std::string p = "selftime." + phase.name + ".";
        m[p + "observed_us"] = mean(observed);
        m[p + "kernel_us"] = mean(kernel);
        m[p + "engine_us"] = mean(engine);
        m[p + "client_us"] = client_us;
        m[p + "serve_us"] = via == Via::Local ? 0.0 : serve_us;
        m[p + "gateway_us"] = via == Via::Http ? gateway_us : 0.0;
        const double accounted = m[p + "kernel_us"] + m[p + "engine_us"] +
            m[p + "client_us"] + m[p + "serve_us"] + m[p + "gateway_us"];
        m[p + "unaccounted_frac"] = m[p + "observed_us"] > 0
            ? (m[p + "observed_us"] - accounted) / m[p + "observed_us"]
            : 1.0;
    }
    log << "  trace join: " << joined << " calls joined, " << unjoined
        << " without program spans\n";

    m["engine.queue_wait_p50_us"] = quantile(queue_wait, 0.5);
    m["engine.queue_wait_p99_us"] = quantile(queue_wait, 0.99);
    m["engine.kernel_run_us"] = median(kernel_run);
    m["engine.batch_mean"] =
        batch_sweeps > 0 ? batch_requests / batch_sweeps : 0.0;
    // The forming window a request that rode alone waited out: what
    // the adaptive window costs sequential traffic.
    m["engine.form_us"] = median(lone_wait);
    m["engine.shed"] = static_cast<double>(shed);
    m["engine.dropped"] = static_cast<double>(dropped);
    m["serve.shard_submit_us"] = median(shard_submit);

    replayKernels(w, formed, triad_gbps, m, bench_spans, log);
    m["host.triad_gbps"] = triad_gbps;
    return m;
}

// ------------------------------------------------------------ report

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    std::ostringstream s;
    s << std::setprecision(17) << v;
    return s.str();
}

struct Metric
{
    double value;
    std::string unit;
};

void
printPhase(const PhaseResult &p, std::ostream &out)
{
    const perfbench::Tail p99 = perfbench::tail(p.latency_us, 0.99);
    const double best_q = perfbench::supportedQuantile(p.latency_us.size());
    out << "  phase " << p.name << ": round p50s [";
    for (const double v : p.round_p50_us)
        out << " " << std::lround(v);
    out << " ]us round fps [";
    for (const double v : p.round_fps)
        out << " " << std::lround(v);
    out << " ]; pooled:"
        << " n=" << p.latency_us.size()
        << " attempted=" << p.attempted << " failed=" << p.failed
        << " fps=" << p.fps() << " p50=" << median(p.latency_us)
        << "us p90=" << quantile(p.latency_us, 0.9) << "us p99="
        << p99.value << "us ("
        << (p99.supported ? "supported" : "under 10 samples beyond")
        << ") highest supported percentile=p" << 100 * best_q << " ("
        << quantile(p.latency_us, best_q) << "us)";
    if (p.open_loop)
        out << " offered=" << p.honesty.offered_per_s
            << "/s achieved=" << p.honesty.achieved_per_s
            << "/s (worst round " << p.honesty.worst_round_frac
            << " of offered) generator late p50=" << p.honesty.late_p50_us
            << "us p99=" << p.honesty.late_p99_us << "us "
            << (p.honesty.valid ? "valid" : "INVALID: " + p.honesty.reason);
    out << "\n";
}

/**
 * End-to-end metrics of one pass, from each round's figure: the lower
 * quartile of the rounds' median latencies and the upper quartile of
 * their frame rates. Stalls of the shared host only ever add time, so
 * the quieter rounds are the steadier estimate of the program's own
 * speed; a change that slows the program slows every round.
 */
std::map<std::string, Metric>
endToEnd(const Workload &w, const std::vector<PhaseResult> &phases)
{
    std::map<std::string, Metric> m;
    m["setup_s"] = {w.setup_s, "s"};
    m["resident_mb"] = {w.resident_mb, "MB"};
    for (const PhaseResult &p : phases) {
        const double p50 = quantile(p.round_p50_us, 0.25);
        if (p.name == "lone") {
            m["lone_p50_us"] = {p50, "us"};
        } else if (p.name == "load") {
            m["load_p50_us"] = {p50, "us"};
        } else if (p.name == "peak") {
            m["peak_fps"] = {quantile(p.round_fps, 0.75), "1/s"};
            m["step_p50_us"] = {p50, "us"};
        }
    }
    return m;
}

std::string
chromeTrace(std::vector<obs::Span> spans,
            const std::vector<PhaseResult> &phases)
{
    for (const PhaseResult &p : phases) {
        spans.push_back({0, "phase:" + p.name, "bench", p.begin_us,
                         p.end_us - p.begin_us, 0, ""});
        for (const Call &c : p.calls)
            spans.push_back({c.trace_id, "Client::infer", "client",
                             c.start_us, c.end_us - c.start_us, 0,
                             c.model});
    }
    return obs::renderChromeTrace(spans);
}

/** Run @p seconds of traffic as w.rounds rounds of lone/load/peak and
 *  merge each phase's slices; calls logged by a traced pass are
 *  assigned to the slice they started in. */
std::vector<PhaseResult>
runPass(Workload &w, double seconds, std::uint64_t seed)
{
    // An untimed warm-up round first, a twentieth of the pass: the
    // first sweeps of each batch size allocate buffers that no later
    // round pays for. Its frames are still checked.
    for (const PhaseResult &p :
         w.phases(seconds / 20, deriveSeed(seed, "warm-up")))
        if (p.failed > 0)
            die(w.name + ": a warm-up frame failed or differed from the "
                         "oracle");
    w.log->take();
    std::vector<PhaseResult> merged(3);
    for (int round = 0; round < w.rounds; ++round) {
        std::vector<PhaseResult> slices = w.phases(
            seconds / w.rounds,
            deriveSeed(seed, "round" + std::to_string(round)));
        const std::vector<Call> calls = w.log->take();
        for (std::size_t i = 0; i < slices.size(); ++i) {
            for (const Call &c : calls)
                if (c.start_us >= slices[i].begin_us &&
                    c.start_us <= slices[i].end_us)
                    slices[i].calls.push_back(c);
            mergePhase(merged[i], std::move(slices[i]));
        }
    }
    for (PhaseResult &p : merged)
        if (p.open_loop)
            p.honesty = perfbench::checkOpenLoop(p.rounds, kMaxStallS,
                                                 kBacklogSlackS);
    return merged;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    fs::create_directories(args.workdir);
    std::ostream &out = std::cout;

    Workload w;
    AlexnetFc alexnet;
    SmallFcHttp small;
    if (args.workload == "alexnet_fc")
        alexnet.build(args, w);
    else if (args.workload == "small_fc_http")
        small.build(args, w);
    else
        die("unknown workload '" + args.workload +
            "' (alexnet_fc | small_fc_http)");

    out << "host: cpu=" << jsonString(cpuModel()) << " nproc=" << nproc()
        << " kernel_simd=" << core::kernel::simdIsaName()
        << " compiler=" << jsonString(PERFBENCH_COMPILER)
        << " commit=" << args.commit << "\n";
    out << "workload " << w.name << " seed=" << args.seed
        << " seconds=" << args.seconds << " trace=" << args.trace
        << " setup_s=" << w.setup_s << "\n";

    std::vector<PhaseResult> untraced, traced;
    std::map<std::string, double> layer_metrics;
    const double pass_seconds =
        args.trace ? args.seconds / 2 : args.seconds;
    untraced = runPass(w, pass_seconds, args.seed);
    w.resident_mb = w.resident();
    out << " untraced pass:\n";
    for (const PhaseResult &p : untraced)
        printPhase(p, out);

    if (args.trace) {
        // The traced pass: same traffic, the benchmark's spans on and
        // the program's ring drained into memory as it fills.
        obs::MetricsRegistry &registry = obs::processRegistry();
        const std::uint64_t shed0 =
            registry.counter("eie_server_shed_total").value();
        const std::uint64_t dropped0 =
            registry.counter("eie_server_dropped_deadline_total").value();
        std::vector<obs::Span> program_spans;
        {
            RingDrain drain;
            w.log->enable(true);
            traced = runPass(w, pass_seconds, args.seed);
            w.log->enable(false);
            program_spans = drain.finish();
        }
        const std::uint64_t shed =
            registry.counter("eie_server_shed_total").value() - shed0;
        const std::uint64_t dropped =
            registry.counter("eie_server_dropped_deadline_total").value() -
            dropped0;
        out << " traced pass:\n";
        for (const PhaseResult &p : traced)
            printPhase(p, out);
        std::vector<obs::Span> bench_spans;
        const double triad = streamTriadGbps();
        out << "  host STREAM triad (1 thread): " << triad << " GB/s\n";
        layer_metrics =
            analyseTrace(w, traced, program_spans, bench_spans, triad,
                         shed, dropped, out);
        // Tracing overhead: traced vs untraced pass, same traffic, as
        // a share of the untraced figure; positive when tracing costs.
        const auto base = endToEnd(w, untraced);
        const auto with = endToEnd(w, traced);
        layer_metrics["trace.lone_p50_us_overhead_frac"] =
            with.at("lone_p50_us").value / base.at("lone_p50_us").value -
            1.0;
        layer_metrics["trace.peak_fps_overhead_frac"] =
            1.0 - with.at("peak_fps").value / base.at("peak_fps").value;
        std::vector<obs::Span> all = program_spans;
        all.insert(all.end(), bench_spans.begin(), bench_spans.end());
        const std::string path = args.workdir + "/trace_" + w.name + "_" +
            std::to_string(args.seed) + ".json";
        std::ofstream(path) << chromeTrace(std::move(all), traced);
        out << "  chrome trace: " << path << "\n";
    }

    // Correctness: every frame's status and output.
    std::uint64_t attempted = 0, failed = 0;
    bool valid = true;
    for (const auto *pass : {&untraced, &traced})
        for (const PhaseResult &p : *pass) {
            attempted += p.attempted;
            failed += p.failed;
            if (p.open_loop && !p.honesty.valid)
                valid = false;
        }
    const bool correct = failed == 0;
    out << "correctness: attempted=" << attempted << " failed=" << failed
        << "\n";
    if (!correct) {
        std::cerr << "perfbench: outputs differ from the scalar oracle or "
                     "requests failed\n";
        return 1;
    }
    if (!valid) {
        std::cerr << "perfbench: an open-loop phase is invalid; its "
                     "latency is not reported\n";
        return 3;
    }

    std::ostringstream json;
    json << "{\"correct\": true, \"attempted\": " << attempted
         << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    const auto emit = [&](const std::string &name, double value,
                          const std::string &unit) {
        json << (first ? "" : ", ") << jsonString(name)
             << ": {\"value\": " << jsonNumber(value)
             << ", \"unit\": " << jsonString(unit) << "}";
        first = false;
    };
    if (!args.trace) {
        for (const auto &[name, metric] : endToEnd(w, untraced))
            emit(name, metric.value, metric.unit);
    } else {
        for (const auto &[name, value] : layer_metrics) {
            std::string unit = "us";
            if (name.ends_with("_frac"))
                unit = "frac";
            else if (name.ends_with("gbps"))
                unit = "GB/s";
            else if (name.ends_with("_ms"))
                unit = "ms";
            else if (name.ends_with("batch_mean"))
                unit = "frames";
            else if (name.ends_with("shed") || name.ends_with("dropped") ||
                     name.ends_with("refused"))
                unit = "count";
            emit(name, value, unit);
        }
    }
    json << "}}";
    out << json.str() << std::endl;
    return 0;
}
