#ifndef RM_OBS_SAMPLER_HH
#define RM_OBS_SAMPLER_HH

/**
 * @file
 * Interval sampler: an in-memory time-series of a MetricsRegistry (one
 * column per flattened metric, one row per sample). The SM it is
 * attached to publishes its metrics and calls snapshot() at every
 * multiple of interval() (interval 0: never), including cycles the
 * skip-ahead engine would otherwise jump over. Counters and gauges
 * sample as their current value; histograms flatten to <name>.count /
 * <name>.sum / <name>.max. A sample walks the registry, which is fine
 * at any realistic interval.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hh"

namespace rm {

/** One row of the time-series. */
struct SamplePoint
{
    std::uint64_t cycle = 0;
    std::vector<double> values;  ///< parallel to Sampler::columns()
};

/** Snapshots @p registry every @p interval cycles. */
class Sampler
{
  public:
    Sampler(MetricsRegistry &reg, std::uint64_t interval_cycles)
        : registry(reg), sampleInterval(interval_cycles)
    {}

    /** Take a sample right now (the SM's interval samples, or a final
     *  end-of-run row). */
    void
    snapshot(std::uint64_t cycle)
    {
        SamplePoint point;
        point.cycle = cycle;
        point.values.assign(columnNames.size(), 0.0);
        auto store = [&](const std::string &name, double value) {
            const auto it = columnIndex.find(name);
            std::size_t col;
            if (it == columnIndex.end()) {
                // A metric appeared after earlier samples: open a new
                // column and backfill the old rows with zero.
                col = columnNames.size();
                columnIndex.emplace(name, col);
                columnNames.push_back(name);
                for (SamplePoint &old : series)
                    old.values.push_back(0.0);
                point.values.push_back(value);
            } else {
                col = it->second;
                point.values[col] = value;
            }
        };
        for (const auto &[name, counter] : registry.counters())
            store(name, static_cast<double>(counter.value()));
        for (const auto &[name, gauge] : registry.gauges())
            store(name, static_cast<double>(gauge.value()));
        for (const auto &[name, histogram] : registry.histograms()) {
            store(name + ".count",
                  static_cast<double>(histogram.count()));
            store(name + ".sum", static_cast<double>(histogram.sum()));
            store(name + ".max", static_cast<double>(histogram.max()));
        }
        series.push_back(std::move(point));
    }

    std::uint64_t interval() const { return sampleInterval; }
    const std::vector<std::string> &columns() const { return columnNames; }
    const std::vector<SamplePoint> &samples() const { return series; }

  private:
    MetricsRegistry &registry;
    std::uint64_t sampleInterval;
    std::vector<std::string> columnNames;
    std::map<std::string, std::size_t> columnIndex;
    std::vector<SamplePoint> series;
};

} // namespace rm

#endif // RM_OBS_SAMPLER_HH
