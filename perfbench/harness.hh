#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

/**
 * @file
 * Shared machinery of the end-to-end benchmark: run context and
 * report, the span tracer used by traced runs, order statistics, and
 * the exact output checks every workload applies to its results.
 *
 * Spans are recorded only here, around the benchmark's own calls into
 * the simulator's public functions; the program itself is never
 * instrumented and rm-prof stays disabled in both modes.
 */

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic time in nanoseconds (the clock run.py's spawn time uses). */
std::int64_t nowNs();

/** Seconds elapsed since @p start_ns. */
double secondsSince(std::int64_t start_ns);

/** One measured value of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Inputs of one benchmark run, from the command line. */
struct RunContext
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Concurrent participants for runSweep / per-SM parallelFor. */
    int threads = 1;
    /** Directory holding the expected-output files. */
    std::string expectedDir;
    /** Monotonic ns at which run.py spawned this process (0: unknown). */
    std::int64_t spawnNs = 0;
    /** Monotonic ns at which main() started; set-up is timed from here
     *  when the spawn time is unknown. */
    std::int64_t mainStartNs = 0;
    /** Stop right after the warm-up pass (set-up timing only). */
    bool setupOnly = false;
    /** Where a traced run writes its spans (empty: do not write). */
    std::string spansPath;
};

/** Outcome of one run: op counts, metrics and human-readable notes. */
struct RunReport
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** Process spawn (or main) to the first timed op, seconds. */
    double setupSeconds = 0.0;
    std::vector<Metric> metrics;
    /** Lines printed above the result line (figure averages, tails). */
    std::vector<std::string> notes;
    /** Extra correctness conditions beyond per-op checks. */
    bool extraChecksPassed = true;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    /** Count one checked op; a failed one is listed above the result. */
    void check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            notes.push_back("FAILED " + what);
        }
    }
};

/** Median of @p samples (mean of the middle two for even counts). */
double median(std::vector<double> samples);

/**
 * The tail the benchmark reports: the highest integer percentile that
 * still has at least ten samples beyond it (nearest-rank), never below
 * the median. With fewer than twenty samples the median is returned
 * and `beyond` shows how thin the tail is.
 */
struct Tail
{
    int percentile = 50;
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples strictly after the reported rank (in each block). */
    std::size_t beyond = 0;
    /** Blocks whose tails runTail() took the median of. */
    std::size_t blocks = 1;
};
Tail tailOf(std::vector<double> samples);

/** Fewest samples in one block of runTail(). */
constexpr std::size_t kTailBlock = 1000;

/**
 * The tail of a run's latencies, given in time order. Below three
 * blocks' worth of samples it is tailOf() of them all. A longer run is
 * cut into consecutive blocks of at least kTailBlock samples and the
 * median of the blocks' tails is reported: with thousands of samples
 * the ten or hundred beyond a p99 can all come from one stall of the
 * host lasting a second or two, which then moves one block's tail
 * instead of the run's (as rates use the median pass, not the total).
 */
Tail runTail(const std::vector<double> &in_order);

/**
 * The ten end-to-end metrics. Each workload is a closed loop of ops
 * (a cell, a full-machine run, or a verdict) grouped into passes that
 * repeat the same inputs; rates are ops (or simulated instructions)
 * per pass over the median pass time, so a burst of host noise moves
 * them less than a total would. `latencies` are what the workload
 * times one at a time (a figures pass, a run, a verdict). README.md
 * says what each metric means off its home workload.
 */
struct EndToEnd
{
    double setupSeconds = 0.0;
    std::vector<double> passSeconds;
    std::int64_t opsPerPass = 0;
    std::uint64_t instsPerPass = 0;
    std::vector<double> latencies;  ///< seconds
};
void addEndToEnd(RunReport &report, const EndToEnd &e2e,
                 const std::string &latency_label);

/** What one timed pass of a workload's closed loop measured. */
struct TimedPass
{
    double seconds = 0.0;
    std::vector<double> latencies;  ///< seconds, one per timed unit
};

/** The size of every pass, known once the warm-up has run. */
struct PassShape
{
    std::int64_t ops = 0;
    std::uint64_t insts = 0;
};

/**
 * The closed loop all workloads share. @p warm_up ends set-up, and
 * report.setupSeconds is stamped right after it. Unless the run is
 * set-up only or traced, @p pass then repeats until ctx.seconds have
 * passed and the end-to-end metrics are added. Returns true when the
 * caller still has to make its traced measurements.
 */
bool closedLoop(const RunContext &ctx, RunReport &report,
                const std::function<PassShape()> &warm_up,
                const std::function<TimedPass()> &pass,
                const std::string &latency_label);

/** Peak resident set of this process, MiB. */
double peakRssMb();

/**
 * The per-layer metrics of a traced run, named after the modules they
 * time. A field stays 0 on a workload that never calls into that
 * layer (README.md lists which apply where).
 */
struct Layers
{
    double buildMs = 0, staticInsts = 0;
    double compileMs = 0, tvMs = 0, validateMs = 0, addedInsts = 0,
           enabledFrac = 0;
    double lintMs = 0, findings = 0;
    double regmutexPrepareMs = 0, baselinesPrepareMs = 0,
           acquireSuccessRate = 0, extAccessesPerInst = 0;
    double runMs = 0, interpMs = 0, nsPerInst = 0;
    std::map<std::string, double> nsPerCycle;  ///< policy → ns
    double nsPerCycleIdleHi = 0, nsPerCycleIdleLo = 0, idleSlotFrac = 0;
    double gmemInitMs = 0, gmemDigestMs = 0;
    double controlledOverheadFrac = 0, snapshotCaptureMs = 0,
           snapshotEncodeMs = 0, snapshotDecodeMs = 0, snapshotMb = 0,
           smImbalance = 0;
    double sweepSpeedup = 0, smSpeedup = 0, sweepOverheadMs = 0;
    double statsJsonUs = 0, sinkOverheadFrac = 0;
    double traceOverheadFrac = 0;
};
void addLayers(RunReport &report, const Layers &layers);

/**
 * Median construction and digest() time, ms, of the 2^20-word
 * GlobalMemory every simulated SM and interpreter run builds.
 */
std::pair<double, double> globalMemoryCosts();

// --------------------------------------------------------------------
// Tracing

/** One recorded span; times are ns relative to the tracer's epoch. */
struct Span
{
    int id = 0;
    int parent = -1;
    /** The op (cell / run / verdict index) the span belongs to. */
    int op = -1;
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/**
 * In-memory span recorder. Thread-safe: the engine calls allocator
 * factories from pool threads, so spans around them open and close
 * concurrently. Written out once, when the run ends.
 */
class Tracer
{
  public:
    Tracer();

    int begin(const char *name, int parent, int op);
    void end(int id);

    std::vector<Span> spans() const;

    /** Write spans plus the per-name self-time table as JSON. */
    void write(const std::string &path) const;

  private:
    std::int64_t epoch;
    mutable std::mutex mutex;
    std::vector<Span> recorded;
};

/**
 * RAII span that does nothing when the tracer is null, so one code
 * path serves traced and untraced runs.
 */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, int parent = -1, int op = -1)
        : tracer(tracer),
          id(tracer ? tracer->begin(name, parent, op) : -1)
    {}
    ~Scope()
    {
        if (tracer)
            tracer->end(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    int spanId() const { return id; }

  private:
    Tracer *tracer;
    int id;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its direct children (overlapping children, from
 * parallel threads, are counted once; parts outside the parent are
 * clipped). Indexed like @p spans.
 */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Per-name totals over a span set. */
struct NameTotals
{
    std::int64_t calls = 0;
    std::int64_t selfNs = 0;
    std::int64_t totalNs = 0;
};
std::map<std::string, NameTotals> totalsByName(const std::vector<Span> &spans);

/** Mean self time per call of spans named @p name, ms (0 when none). */
double meanSelfMs(const std::map<std::string, NameTotals> &totals,
                  const std::string &name);

// --------------------------------------------------------------------
// Output checks

/**
 * The exact check applied to every simulated result: equal to the
 * stored expectation, and surviving the statsToJson → parseJson →
 * statsFromJson round trip users read it through. On failure @p why
 * names the first difference.
 */
bool statsMatch(const rm::SimStats &actual, const rm::SimStats &expected,
                std::string *why);

/** Load a JSON object of name → statsToJson object. */
std::map<std::string, rm::SimStats> loadStatsMap(const std::string &path,
                                                 const std::string &member);

/** Seeded, reproducible permutation of 0..n-1. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/** Stable 64-bit mix of a seed with a role tag and an index. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t role,
                         std::uint64_t index);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
