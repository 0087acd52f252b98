/// Pins what `run_macsio`/`run_restart` instrumentation emits for two fixed
/// dump+restart runs: the FNV-1a of the exported Chrome trace and of the
/// metrics JSON, the ResourceLedger's agg_link / codec_cpu busy seconds and
/// makespan (exact doubles, per epoch), the FNV-1a of the dump and restart
/// request lists and of the iostats event stream, and the restart's scatter
/// and decode gates.
///
/// The constants were recorded at commit 7b69242 (before the dump and
/// restart shared one run plan and one per-group ship schedule) and must not
/// move under a refactor of either: every value is derived from pure codec
/// plans and the aggregation topology, so any drift is a behavior change.
/// A failing pin prints the current value in the form its constant takes.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "exec/engine.hpp"
#include "iostats/trace.hpp"
#include "macsio/driver.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/probe.hpp"
#include "obs/span.hpp"
#include "pfs/backend.hpp"

namespace ex = amrio::exec;
namespace io = amrio::iostats;
namespace mc = amrio::macsio;
namespace obs = amrio::obs;
namespace p = amrio::pfs;

namespace {

std::uint64_t fnv(const std::string& text) {
  return mc::restart_hash(
      std::as_bytes(std::span<const char>(text.data(), text.size())));
}

std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::uint64_t requests_hash(const std::vector<p::IoRequest>& reqs) {
  std::ostringstream os;
  for (const auto& r : reqs)
    os << r.client << ' ' << hexfloat(r.submit_time) << ' ' << r.file << ' '
       << r.bytes << ' ' << r.tier << ' ' << r.op << '\n';
  return fnv(os.str());
}

std::uint64_t events_hash(const std::vector<io::IoEvent>& events) {
  std::ostringstream os;
  for (const auto& e : events)
    os << static_cast<int>(e.op) << ' ' << e.step << ' ' << e.level << ' '
       << e.rank << ' ' << e.tier << ' ' << e.aggregator << ' ' << e.path
       << ' ' << e.bytes << ' ' << e.encoded_bytes << ' '
       << hexfloat(e.codec_seconds) << '\n';
  return fnv(os.str());
}

/// busy seconds of `name` in `rep` (0 when the ledger never saw it).
double busy(const obs::UtilizationReport& rep, const std::string& name) {
  for (const auto& r : rep.resources)
    if (r.name == name) return r.busy_s;
  return 0.0;
}

struct Pins {
  std::uint64_t trace = 0;
  std::uint64_t metrics = 0;
  std::uint64_t dump_requests = 0;
  std::uint64_t restart_requests = 0;
  std::uint64_t events = 0;
  double dump_agg_link = 0.0;
  double dump_codec_cpu = 0.0;
  double dump_makespan = 0.0;
  double agg_link = 0.0;  ///< both epochs
  double codec_cpu = 0.0;
  double makespan = 0.0;
  double scatter_seconds = 0.0;
  double decode_gate = 0.0;
};

Pins run_pinned(const mc::Params& params) {
  p::MemoryBackend backend(false);
  io::TraceRecorder trace;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::ResourceLedger ledger;
  obs::Probe probe;
  probe.tracer = &tracer;
  probe.metrics = &metrics;
  probe.ledger = &ledger;

  ex::EventEngine engine(params.nprocs);
  const mc::DumpStats dump =
      mc::run_macsio(engine, params, backend, &trace, probe);
  const obs::UtilizationReport dump_rep = ledger.report();
  ledger.begin_epoch();
  const mc::RestartStats restart =
      mc::run_restart(engine, params, backend, &trace, probe);
  const obs::UtilizationReport rep = ledger.report();

  std::ostringstream trace_json;
  obs::write_chrome_trace(trace_json, tracer.spans(), tracer.edges());
  std::ostringstream metrics_json;
  obs::write_metrics_json(metrics_json, metrics.snapshot());

  Pins out;
  out.trace = fnv(trace_json.str());
  out.metrics = fnv(metrics_json.str());
  out.dump_requests = requests_hash(dump.requests);
  out.restart_requests = requests_hash(restart.requests);
  out.events = events_hash(trace.events());
  out.dump_agg_link = busy(dump_rep, "agg_link");
  out.dump_codec_cpu = busy(dump_rep, "codec_cpu");
  out.dump_makespan = dump_rep.makespan;
  out.agg_link = busy(rep, "agg_link");
  out.codec_cpu = busy(rep, "codec_cpu");
  out.makespan = rep.makespan;
  out.scatter_seconds = restart.scatter_seconds;
  out.decode_gate = restart.decode_gate;
  return out;
}

/// Field-by-field comparison; a mismatch prints the current value in the
/// form its constant takes.
void expect_pins(const Pins& got, const Pins& want) {
  auto hash = [](const char* name, std::uint64_t g, std::uint64_t w) {
    EXPECT_EQ(g, w) << name << " = 0x" << std::hex << g << "ull";
  };
  auto exact = [](const char* name, double g, double w) {
    EXPECT_EQ(g, w) << name << " = " << hexfloat(g);
  };
  hash("trace", got.trace, want.trace);
  hash("metrics", got.metrics, want.metrics);
  hash("dump_requests", got.dump_requests, want.dump_requests);
  hash("restart_requests", got.restart_requests, want.restart_requests);
  hash("events", got.events, want.events);
  exact("dump_agg_link", got.dump_agg_link, want.dump_agg_link);
  exact("dump_codec_cpu", got.dump_codec_cpu, want.dump_codec_cpu);
  exact("dump_makespan", got.dump_makespan, want.dump_makespan);
  exact("agg_link", got.agg_link, want.agg_link);
  exact("codec_cpu", got.codec_cpu, want.codec_cpu);
  exact("makespan", got.makespan, want.makespan);
  exact("scatter_seconds", got.scatter_seconds, want.scatter_seconds);
  exact("decode_gate", got.decode_gate, want.decode_gate);
}

}  // namespace

TEST(InstrumentationPins, AggregatedBbEblDumpAndRestart) {
  mc::Params params;
  params.nprocs = 64;
  params.aggregators = 8;
  params.stage_to_bb = true;
  params.codec = "ebl";
  params.num_dumps = 2;
  params.part_size = 24000;
  params.avg_num_parts = 1.5;
  params.compute_time = 0.25;
  params.restart = true;
  params.restart_from_bb = true;
  expect_pins(run_pinned(params), {.trace = 0x056852cdb4e8d483ull,
                                   .metrics = 0x0de6037c57e2c6d8ull,
                                   .dump_requests = 0x2feff87d3eaf7fb3ull,
                                   .restart_requests = 0x7d02525224fdf273ull,
                                   .events = 0x7e5a45f6856ec94cull,
                                   .dump_agg_link = 0x1.012bd5f001c83p-12,
                                   .dump_codec_cpu = 0x1.30ea0e31a7785p-8,
                                   .dump_makespan = 0x1.001173090a9b1p-2,
                                   .agg_link = 0x1.81c1c0e802ac3p-12,
                                   .codec_cpu = 0x1.7d2491be11566p-8,
                                   .makespan = 0x1.001c8c02fd3d6p-2,
                                   .scatter_seconds = 0x1.2fbab6aa608e2p-16,
                                   .decode_gate = 0x1.9683c5fe32001p-16});
}

TEST(InstrumentationPins, DirectMifDumpAndRestart) {
  mc::Params params;
  params.nprocs = 64;
  params.mif_files = 8;
  params.codec = "lossless";
  params.num_dumps = 2;
  params.part_size = 24000;
  params.avg_num_parts = 1.5;
  params.compute_time = 0.25;
  params.restart = true;
  expect_pins(run_pinned(params), {.trace = 0xf85898a346c64193ull,
                                   .metrics = 0x741dab90213cefe3ull,
                                   .dump_requests = 0x715a01fea9d459ffull,
                                   .restart_requests = 0x4fbe3bada41dc7eaull,
                                   .events = 0xf4eadc8a8f232ef1ull,
                                   .dump_agg_link = 0x0p+0,
                                   .dump_codec_cpu = 0x1.7d2491be1155cp-7,
                                   .dump_makespan = 0x0p+0,
                                   .agg_link = 0x0p+0,
                                   .codec_cpu = 0x1.c95f154a7b33dp-7,
                                   .makespan = 0x1.9683c5fe32001p-15,
                                   .scatter_seconds = 0x0p+0,
                                   .decode_gate = 0x1.9683c5fe32001p-15});
}
