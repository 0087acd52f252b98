/// \file main.cpp
/// Benchmark program: runs one workload for a fixed host-time budget and
/// prints one JSON report line (metrics, attempted/failed operations, the
/// simulated-statistics digest and any broken invariant) as the last line of
/// stdout. perfbench/run.py builds this program, compares the digest with
/// perfbench/expected.json and prints the benchmark's result line.
///
///   amrio_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                    --workdir DIR [--scale full|small] [--spans FILE]
///
/// --trace 0: untraced repetitions; reports the end-to-end metrics.
/// --trace 1: untraced and traced repetitions alternate; reports per-layer
///            metrics from the spans and the tracing overhead, and writes
///            every span to --spans.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/log.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-layer metrics, in BENCHMARK.json order. Layer times are reported as
/// self-time shares of the traced repetition; absolute seconds are in the
/// span file and the stderr table.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  ///< span whose self-time share this is; null = count
};
constexpr LayerMetric kLayerMetrics[] = {
    {"amr.init_share", "frac", "amr.AmrCore.init"},
    {"amr.advance_share", "frac", "amr.AmrCore.run"},
    {"amr.steps", "count", nullptr},
    {"amr.cell_steps", "count", nullptr},
    {"plotfile.write_share", "frac", "core.write_plot_for"},
    {"plotfile.files", "count", nullptr},
    {"plotfile.bytes", "B", nullptr},
    {"plotfile.scan_share", "frac", "plotfile.scan_plotfiles"},
    {"plotfile.read_share", "frac", "plotfile.read_plotfile"},
    {"plotfile.read_bytes", "B", nullptr},
    {"iostats.aggregate_share", "frac", "iostats.aggregate"},
    {"model.calibrate_share", "frac", "core.calibrate_and_validate"},
    {"model.proxy_err", "frac", nullptr},
    {"exec.engine_setup_share", "frac", "exec.make_engine"},
    {"exec.context_switches", "count", nullptr},
    {"exec.events_per_s", "1/s", nullptr},
    {"exec.ready_queue_peak", "count", nullptr},
    {"exec.slice_arena_bytes", "B", nullptr},
    {"macsio.dump_share", "frac", "macsio.run_macsio"},
    {"macsio.requests", "count", nullptr},
    {"macsio.files", "count", nullptr},
    {"codec.raw_bytes", "B", nullptr},
    {"codec.encoded_bytes", "B", nullptr},
    {"macsio.restart_share", "frac", "macsio.run_restart"},
    {"staging.restage_plan_share", "frac", "staging.make_restage_plan"},
    {"pfs.write_replay_share", "frac", "pfs.SimFs.run.write"},
    {"pfs.read_replay_share", "frac", "pfs.SimFs.run.read"},
    {"pfs.requests", "count", nullptr},
    {"staging.report_share", "frac", "staging.staging_report"},
    {"campaign.key_share", "frac", "campaign.canonical_key"},
    {"campaign.cold_run_share", "frac", "campaign.CampaignExecutor.run.cold"},
    {"campaign.cell_max_over_p50", "x", nullptr},
    {"campaign.parallel_eff", "frac", nullptr},
    {"campaign.steals", "count", nullptr},
    {"campaign.cache_save_share", "frac", "campaign.ResultCache.save"},
    {"campaign.cache_load_share", "frac", "campaign.ResultCache.load"},
    {"campaign.cache_bytes", "B", nullptr},
    {"campaign.warm_run_share", "frac", "campaign.CampaignExecutor.run.warm"},
    {"campaign.hit_ratio", "frac", nullptr},
    {"campaign.fit_share", "frac", "campaign.PredictService.fit"},
    {"campaign.strata", "count", nullptr},
    {"campaign.calibration_err", "frac", nullptr},
    {"campaign.predict_share", "frac", "campaign.PredictService.predict"},
    {"campaign.predict_qps", "1/s", nullptr},
    {"campaign.predict_p99_over_p50", "x", nullptr},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string workdir;
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "amrio_perfbench: %s\nusage: amrio_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--scale full|small] [--spans FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--workdir") a.workdir = v;
      else if (k == "--spans") a.spans = v;
      else if (k == "--scale" && (v == "full" || v == "small"))
        a.scale = v == "full" ? Scale::kFull : Scale::kSmall;
      else usage("unknown option " + k + " " + v);
    } catch (const std::logic_error&) {
      usage("malformed value for " + k + ": " + v);
    }
  }
  if (a.workload.empty() || a.workdir.empty())
    usage("--workload and --workdir are required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    out += c;
  }
  return out;
}

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::string digest;         ///< fingerprint of the first repetition
  std::string digest_text;
  std::string seeded;
  bool consistent = true;     ///< every repetition produced the same digests

  void add(const RepOutcome& r) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& v : r.violations)
      if (std::find(violations.begin(), violations.end(), v) == violations.end())
        violations.push_back(v);
    const std::string d = r.digest.hex();
    const std::string s = r.seeded.hex();
    if (digest.empty()) {
      digest = d;
      digest_text = r.digest.text();
      seeded = s;
    } else if (d != digest || s != seeded) {
      consistent = false;
    }
  }
};

int run(const Args& args) {
  amrio::util::Logger::instance().set_level(amrio::util::LogLevel::kWarn);
  std::filesystem::create_directories(args.workdir);
  std::unique_ptr<Workload> w =
      make_workload(args.workload, args.scale, args.seed, args.workdir);
  if (!w) usage("unknown workload " + args.workload);

  // Set-up runs several times; the median is reported and the last state
  // is kept for the timed section.
  constexpr int kSetups = 5;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  }

  Totals totals;
  std::vector<double> wall;         // untraced repetitions
  std::vector<double> rate;
  std::vector<double> traced_wall;  // traced repetitions
  std::vector<std::map<std::string, double>> traced_share;
  std::map<std::string, double> layer;
  SpanLog log(args.workload);
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    // Traced runs alternate untraced and traced repetitions so both see the
    // same machine state; the traced ones give the per-layer numbers.
    const bool traced = args.trace && i % 2 == 1;
    log.set_rep(i);
    const auto t0 = Clock::now();
    RepOutcome r = w->rep(traced ? &log : nullptr);
    const double dt = seconds_since(t0);
    totals.add(r);
    if (traced) {
      traced_wall.push_back(dt);
      std::map<std::string, double> share;
      for (const auto& [name, self] : log.self_seconds(i))
        share[name] = self / dt;
      traced_share.push_back(std::move(share));
      layer = r.layer;
    } else {
      wall.push_back(dt);
      if (r.unit_seconds > 0) rate.push_back(r.units / r.unit_seconds);
    }
    const bool enough = !args.trace || traced_wall.size() >= 2;
    if (seconds_since(start) >= args.seconds && enough) break;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"setup_s", "s", median(setup_s)},
               {"wall_s", "s", median(wall)},
               {"units_per_s", "1/s", median(rate)},
               {"peak_rss_mb", "MB", peak_rss_mb()}};
  } else {
    const int diag_rep = static_cast<int>(wall.size() + traced_wall.size());
    log.set_rep(diag_rep);
    w->diagnose(&log, layer);
    const double untraced = median(wall);
    const double traced = median(traced_wall);
    metrics.push_back({"trace.wall_s", "s", traced});
    metrics.push_back({"trace.overhead_frac", "frac",
                       untraced > 0 ? traced / untraced - 1.0 : 0.0});
    const auto ratio = [&](const char* num, const char* den) {
      const double d = layer.count(den) != 0 ? layer[den] : 0.0;
      return d > 0 ? layer[num] / d : 0.0;
    };
    layer["campaign.cell_max_over_p50"] =
        ratio("campaign.cell_max_ms", "campaign.cell_p50_ms");
    layer["campaign.predict_p99_over_p50"] =
        ratio("campaign.predict_p99_us", "campaign.predict_p50_us");
    for (const LayerMetric& m : kLayerMetrics) {
      double v = 0.0;
      if (m.span != nullptr) {
        std::vector<double> shares;
        for (const auto& s : traced_share) {
          const auto it = s.find(m.span);
          shares.push_back(it == s.end() ? 0.0 : it->second);
        }
        v = median(shares);
      } else if (layer.count(m.name) != 0) {
        v = layer[m.name];
      }
      metrics.push_back({m.name, m.unit, v});
    }
    // Absolute per-layer self seconds (median over traced repetitions) and
    // the raw latency figures behind the ratios, for people reading stderr.
    std::fprintf(stderr, "%-40s %14s\n", "span (self time)", "median s");
    std::map<std::string, std::vector<double>> self;
    for (std::size_t k = 0; k < traced_share.size(); ++k)
      for (const auto& [name, share] : traced_share[k])
        self[name].push_back(share * traced_wall[k]);
    for (const auto& [name, v] : self)
      std::fprintf(stderr, "%-40s %14.6f\n", name.c_str(), median(v));
    for (const auto& [name, v] : layer)
      std::fprintf(stderr, "%-40s %14.6g\n", name.c_str(), v);
    if (!args.spans.empty() && !log.write_json(args.spans))
      std::fprintf(stderr, "amrio_perfbench: cannot write %s\n",
                   args.spans.c_str());
  }

  {
    std::ofstream f(args.workdir + "/digest-" + args.workload + ".txt");
    f << totals.digest_text << "\n";
  }
  std::fprintf(stderr, "untraced repetition seconds:");
  for (double t : wall) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "%s: %zu untraced + %zu traced repetitions, %llu %s attempted, "
               "%llu failed (failed_frac %.6g)\n",
               args.workload.c_str(), wall.size(), traced_wall.size(),
               static_cast<unsigned long long>(totals.attempted), w->op_unit(),
               static_cast<unsigned long long>(totals.failed),
               totals.attempted > 0
                   ? static_cast<double>(totals.failed) /
                         static_cast<double>(totals.attempted)
                   : 0.0);

  std::string line = "{\"workload\": \"" + args.workload + "\"";
  line += ", \"unit\": \"" + std::string(w->unit()) + "\"";
  line += ", \"op_unit\": \"" + std::string(w->op_unit()) + "\"";
  line += ", \"samples\": " + std::to_string(wall.size());
  line += ", \"traced_samples\": " + std::to_string(traced_wall.size());
  line += ", \"attempted\": " + std::to_string(totals.attempted);
  line += ", \"failed\": " + std::to_string(totals.failed);
  line += ", \"digest\": \"" + totals.digest + "\"";
  line += ", \"seeded_digest\": \"" + totals.seeded + "\"";
  line += std::string(", \"consistent\": ") +
          (totals.consistent ? "true" : "false");
  line += ", \"violations\": [";
  for (std::size_t i = 0; i < totals.violations.size(); ++i)
    line += (i ? ", \"" : "\"") + json_escape(totals.violations[i]) + "\"";
  line += "], \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amrio_perfbench: %s\n", e.what());
    return 1;
  }
}
