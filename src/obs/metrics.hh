#ifndef RM_OBS_METRICS_HH
#define RM_OBS_METRICS_HH

/**
 * @file
 * Metrics registry for the observability layer: named counters, gauges,
 * and histograms. The timing model keeps its counts in SimStats and
 * publishes them here at every sample and leg end (Sm::publishMetrics);
 * only events with no SimStats field (acquire waits, snapshots,
 * restores) update an instrument as they happen. Metrics never feed
 * back into timing, so attaching a registry changes no simulated cycle
 * and no snapshot byte.
 *
 * Naming convention: dot-separated lowercase paths grouped by
 * subsystem, e.g. "stall.scoreboard", "srp.holders",
 * "srp.acquire_wait_cycles" (see docs/OBSERVABILITY.md for the
 * catalog).
 */

#include <cstdint>
#include <limits>
#include <map>
#include <string>

namespace rm {

/** Monotonically increasing event count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { total += n; }
    /** Publish a count kept elsewhere (e.g. a SimStats field). */
    void set(std::uint64_t v) { total = v; }
    std::uint64_t value() const { return total; }

  private:
    std::uint64_t total = 0;
};

/** Point-in-time level that can move both ways. */
class Gauge
{
  public:
    void set(std::int64_t v) { level = v; }
    std::int64_t value() const { return level; }

  private:
    std::int64_t level = 0;
};

/**
 * Power-of-two-bucketed latency histogram: bucket i counts observations
 * in [2^(i-1), 2^i), bucket 0 counts zero. 64 buckets cover the full
 * uint64 range, so observe() never clamps.
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 64;

    void
    observe(std::uint64_t v)
    {
        ++buckets[bucketOf(v)];
        ++observations;
        total += v;
        if (v < minimum)
            minimum = v;
        if (v > maximum)
            maximum = v;
    }

    std::uint64_t count() const { return observations; }
    std::uint64_t sum() const { return total; }
    std::uint64_t min() const { return observations ? minimum : 0; }
    std::uint64_t max() const { return maximum; }

    double
    mean() const
    {
        return observations == 0
                   ? 0.0
                   : static_cast<double>(total) / observations;
    }

    std::uint64_t bucketCount(int i) const { return buckets[i]; }

    /** Inclusive upper bound of bucket @p i (for export). */
    static std::uint64_t
    bucketUpperBound(int i)
    {
        if (i == 0)
            return 0;
        if (i >= kBuckets - 1)
            return std::numeric_limits<std::uint64_t>::max();
        return (std::uint64_t{1} << i) - 1;
    }

    static int
    bucketOf(std::uint64_t v)
    {
        int bucket = 0;
        while (v != 0) {
            ++bucket;
            v >>= 1;
        }
        return bucket < kBuckets ? bucket : kBuckets - 1;
    }

  private:
    std::uint64_t buckets[kBuckets] = {};
    std::uint64_t observations = 0;
    std::uint64_t total = 0;
    std::uint64_t minimum = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maximum = 0;
};

/**
 * Named instruments, created on first use. References returned by the
 * accessors stay valid for the registry's lifetime (std::map nodes are
 * stable), so hot paths should look instruments up once and keep the
 * pointer.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name) { return counterMap[name]; }
    Gauge &gauge(const std::string &name) { return gaugeMap[name]; }
    Histogram &histogram(const std::string &name)
    {
        return histogramMap[name];
    }

    /** Deterministically ordered (by name) for exports and sampling. */
    const std::map<std::string, Counter> &counters() const
    {
        return counterMap;
    }
    const std::map<std::string, Gauge> &gauges() const { return gaugeMap; }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histogramMap;
    }

    bool
    empty() const
    {
        return counterMap.empty() && gaugeMap.empty() &&
               histogramMap.empty();
    }

  private:
    std::map<std::string, Counter> counterMap;
    std::map<std::string, Gauge> gaugeMap;
    std::map<std::string, Histogram> histogramMap;
};

} // namespace rm

#endif // RM_OBS_METRICS_HH
