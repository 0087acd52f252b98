#pragma once
/// \file workload.hpp
/// The benchmark's workload interface. A workload is set up (inputs generated
/// from the seed, checkpoints written, warm-ups run), then repeated: each
/// repetition is one timed call sequence into the library, returning the
/// work it did, the operations it attempted and failed, and a digest of the
/// simulated statistics it produced. Repetitions of one workload must produce
/// identical digests; the seed-invariant digest must also match the value
/// recorded in perfbench/expected.json.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Canonical "key=value;" rendering of simulated statistics (doubles in
/// %.17g, so any bit change shows) with an FNV-1a fingerprint.
class Digest {
 public:
  void add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    put(key, buf);
  }
  void add(const std::string& key, std::uint64_t v) {
    put(key, std::to_string(v));
  }
  void add(const std::string& key, std::int64_t v) {
    put(key, std::to_string(v));
  }
  void add(const std::string& key, int v) { put(key, std::to_string(v)); }
  void add(const std::string& key, const std::string& v) { put(key, v); }
  void append(const Digest& other) { text_ += other.text_; }

  const std::string& text() const { return text_; }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(fnv1a(text_.data(), text_.size())));
    return buf;
  }

  static std::uint64_t fnv1a(const void* data, std::size_t n,
                             std::uint64_t h = 0xcbf29ce484222325ull) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
    return h;
  }

 private:
  void put(const std::string& key, const std::string& v) {
    text_ += key;
    text_ += '=';
    text_ += v;
    text_ += ';';
  }
  std::string text_;
};

/// Deterministic input generator (splitmix64): identical streams on every
/// platform, unlike the standard library distributions.
class SeedRng {
 public:
  explicit SeedRng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int uniform(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

struct RepOutcome {
  double units = 0.0;         ///< work units completed (see Workload::unit)
  double unit_seconds = 0.0;  ///< host seconds the units are divided by
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Digest digest;              ///< seed-invariant simulated statistics
  Digest seeded;              ///< seed-dependent outputs (content, answers)
  std::vector<std::string> violations;  ///< broken invariants
  /// Per-layer counts and ratios (filled on every repetition, reported from
  /// the traced ones).
  std::map<std::string, double> layer;

  void check(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }

  /// Fold in the outcome of a later pipeline stage (units are left to the
  /// caller). Per-layer peaks and rates keep the larger value; counts add.
  void merge(const RepOutcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    digest.append(o.digest);
    seeded.append(o.seeded);
    violations.insert(violations.end(), o.violations.begin(),
                      o.violations.end());
    for (const auto& [k, v] : o.layer) {
      const bool peak = k.find("peak") != std::string::npos ||
                        k.find("per_s") != std::string::npos ||
                        k.find("arena") != std::string::npos;
      layer[k] = peak ? std::max(layer[k], v) : layer[k] + v;
    }
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Unit of `RepOutcome::units` ("cell-steps", "rank-dumps", ...).
  virtual const char* unit() const = 0;
  /// Unit of `attempted`/`failed` ("plotfiles", "rank-dumps", ...).
  virtual const char* op_unit() const = 0;
  /// Prepare the inputs of the timed section; called several times, the
  /// last call's state is used.
  virtual void setup() = 0;
  /// One repetition of the timed section. `log` non-null: record spans.
  virtual RepOutcome rep(SpanLog* log) = 0;
  /// Traced runs only, after the timed repetitions: extra per-layer
  /// measurements that need work outside the timed section.
  virtual void diagnose(SpanLog* /*log*/, std::map<std::string, double>& /*layer*/) {}
};

enum class Scale { kFull, kSmall };

std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale,
                                        std::uint64_t seed,
                                        const std::string& workdir);

}  // namespace perfbench
