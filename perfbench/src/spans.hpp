#pragma once
/// \file spans.hpp
/// Host-time spans recorded by the benchmark around its calls into the
/// library's public functions. Spans live in memory and are written out as
/// JSON once, at exit; a layer's self time is the span's duration minus the
/// time its child spans cover. A null `SpanLog*` turns every scope into a
/// no-op, which is how the untraced repetitions run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: top level of its repetition
  int rep = 0;               ///< repetition the span belongs to
  double start = 0.0;        ///< seconds since the log's epoch
  double end = 0.0;
  double child = 0.0;        ///< seconds covered by direct children
  double self() const { return end - start - child; }
};

class SpanLog {
 public:
  explicit SpanLog(std::string workload) : workload_(std::move(workload)) {}

  void set_rep(int rep) { rep_ = rep; }

  std::int64_t open(const std::string& name) {
    Span s;
    s.name = name;
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.rep = rep_;
    s.start = seconds_since(epoch_);
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::int64_t id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = seconds_since(epoch_);
    stack_.pop_back();
    if (s.parent >= 0)
      spans_[static_cast<std::size_t>(s.parent)].child += s.end - s.start;
  }

  /// Self seconds per span name over the spans of repetition `rep`.
  std::map<std::string, double> self_seconds(int rep) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_)
      if (s.rep == rep) out[s.name] += s.self();
    return out;
  }

  /// Write every span as one JSON document; returns false when the file
  /// cannot be opened.
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [\n", workload_.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                   "\"workload\": \"%s\", \"rep\": %d, \"start\": %.9f, "
                   "\"end\": %.9f, \"self\": %.9f}%s\n",
                   s.name.c_str(), static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), workload_.c_str(), s.rep,
                   s.start, s.end, s.self(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::string workload_;
  Clock::time_point epoch_ = Clock::now();
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: `Scope s(log, "macsio.run_restart");` — no-op when log is null.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int64_t id_;
};

}  // namespace perfbench
