#pragma once
/// \file metrics.hpp
/// Metrics registry for the simulated pipeline: monotonic counters, gauges,
/// log-bucketed histograms, and virtual-time series (BB occupancy, drain
/// streams busy, queue depth, stall time).
///
/// Determinism contract: snapshots must be identical across the event and
/// spmd engines. Counters and histogram bucket counts are integer adds
/// (commutative, any interleaving yields the same totals). Histogram sums are
/// quantized to integer units at `observe()` time (`llround(v / quantum)`) so
/// float accumulation order can't leak engine scheduling into the snapshot.
/// `gauge_set` and `sample` are *not* commutative — call them only from
/// deterministic single-threaded contexts (rank 0, or post-run SimFs
/// emission); `gauge_max` commutes and is safe anywhere.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace amrio::obs {

/// Log2-bucketed histogram over integer units of `quantum`.
struct HistogramSnapshot {
  double quantum = 1.0;          ///< value of one unit (e.g. 1e-9 s, 1 byte)
  std::int64_t count = 0;        ///< number of observations
  std::int64_t sum_units = 0;    ///< sum of llround(v / quantum)
  /// bucket index -> count; index b holds units in [2^b, 2^(b+1)), with
  /// index -1 holding zero-unit observations.
  std::map<int, std::int64_t> buckets;

  double sum() const { return static_cast<double>(sum_units) * quantum; }
  double mean() const { return count ? sum() / static_cast<double>(count) : 0.0; }
};

struct TimeSeriesSnapshot {
  /// (virtual time, value) in sample order.
  std::vector<std::pair<double, double>> samples;
};

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, TimeSeriesSnapshot> series;
};

class MetricsRegistry {
 public:
  /// Monotonic counter increment. Commutative — safe from any rank.
  void add(const std::string& name, std::int64_t delta);

  /// Last-write-wins gauge. Only call from deterministic contexts.
  void gauge_set(const std::string& name, double value);

  /// Running-max gauge. Commutative — safe from any rank.
  void gauge_max(const std::string& name, double value);

  /// Histogram observation; `quantum` fixes the integer unit (must be the
  /// same for every observation of one histogram — first call wins).
  void observe(const std::string& name, double value, double quantum);

  /// Append a (virtual time, value) sample to a named series. Only call from
  /// deterministic contexts (samples are kept in call order).
  void sample(const std::string& name, double t, double value);

  /// Deterministic snapshot (std::map iteration order).
  MetricsSnapshot snapshot() const;

 private:
  struct Histogram {
    double quantum = 1.0;
    std::int64_t count = 0;
    std::int64_t sum_units = 0;
    std::map<int, std::int64_t> buckets;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, std::vector<std::pair<double, double>>> series_;
};

}  // namespace amrio::obs
