// Metrics: named counters, gauges, and histograms with a Prometheus-text
// exporter and a sim-clock time-series sampler.
//
// The registry is deterministic end to end: metric families are kept in a
// sorted map, histograms use explicit bucket bounds, and the sampler records
// snapshots at *simulation* timestamps -- a simulated campaign emits the same
// time-series on every run because no wall clock is ever consulted.
//
// Like the tracer, the registry is opt-in by pointer: components hold a
// non-owning MetricsRegistry* that defaults to null, and a null registry
// costs nothing.  See docs/observability.md for the metric name catalogue.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rangeamp::obs {

class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram (Prometheus semantics: `le` upper bounds are
/// cumulative, an implicit +Inf bucket catches the tail).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = {});

  void observe(double value) noexcept;

  /// Adds `other`'s observations bucket-wise (sharded campaigns merge
  /// per-shard histograms this way).  Throws std::invalid_argument when the
  /// bucket bounds differ -- merging those would misbucket observations.
  void merge_from(const Histogram& other);

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// counts()[i] = observations <= bounds()[i]; counts().back() = all.
  std::vector<std::uint64_t> cumulative_counts() const;
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }

 private:
  std::vector<double> bounds_;        ///< ascending upper bounds
  std::vector<std::uint64_t> buckets_;  ///< per-bucket (non-cumulative) counts
  std::uint64_t overflow_ = 0;        ///< observations above the last bound
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

/// Default amplification-factor buckets: decades from 1x to 100000x, the
/// range Table IV/V spans.
std::vector<double> amplification_buckets();

class MetricsRegistry {
 public:
  /// Looks up or creates a metric.  `name` may carry Prometheus-style labels
  /// (`sbr_amplification_factor{vendor="Cloudflare"}`); the registry treats
  /// the whole string as the identity.  `help` is recorded on first sight.
  Counter& counter(const std::string& name, const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& help = "");
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const std::string& help = "");

  /// Snapshots every counter and gauge at simulation time `sim_seconds`,
  /// appending to the internal time series.
  void sample(double sim_seconds);

  /// Prometheus text exposition of the current values (counters, gauges,
  /// histograms with _bucket/_sum/_count).
  std::string to_prometheus() const;

  /// The sampled time series as CSV: `t_s,metric,value` rows in sample
  /// order.
  std::string series_csv() const;

  /// Deterministic ordered reduction of a per-shard registry into this one:
  /// counters and histograms add, gauges add (per-shard gauges are partial
  /// sums of a deployment-wide quantity), help strings are adopted on first
  /// sight, and `other`'s time series is appended then the whole series is
  /// stable-sorted by timestamp -- per-shard samples interleave into one
  /// time-ordered stream whose order depends only on merge order, never on
  /// thread scheduling.  Merge shards in shard-index order.
  void merge_from(const MetricsRegistry& other);

  std::size_t metric_count() const noexcept;
  std::size_t sample_count() const noexcept { return series_.size(); }

 private:
  struct SeriesPoint {
    double t;
    std::string name;
    double value;
  };

  // std::map keeps exposition and sampling order deterministic.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::string> help_;
  std::vector<SeriesPoint> series_;
};

}  // namespace rangeamp::obs
