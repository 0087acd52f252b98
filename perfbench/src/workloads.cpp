/// \file workloads.cpp
/// The benchmark workloads: paper_pipeline (the Sedov, machine-scale dump
/// and restart stages below, run in sequence) and campaign_serve. Each calls
/// the library only through its public headers and records spans around
/// those calls when traced.

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>

#include "campaign/cache.hpp"
#include "campaign/executor.hpp"
#include "campaign/grid.hpp"
#include "campaign/predict.hpp"
#include "codec/codec.hpp"
#include "core/amrio.hpp"
#include "macsio/interfaces.hpp"
#include "macsio/part.hpp"
#include "obs/selfprof.hpp"
#include "staging/aggregator.hpp"
#include "staging/drain.hpp"
#include "staging/restage.hpp"
#include "util/format.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace amrio;

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]).
double percentile_of(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

void add_report(Digest& d, const std::string& prefix,
                const staging::StagingReport& r) {
  d.add(prefix + ".perceived_makespan", r.perceived.makespan);
  d.add(prefix + ".sustained_makespan", r.sustained.makespan);
  d.add(prefix + ".perceived_bw", r.perceived_bandwidth);
  d.add(prefix + ".sustained_bw", r.sustained_bandwidth);
  d.add(prefix + ".drain_tail", r.drain_tail);
  d.add(prefix + ".staged_bytes", r.staged_bytes);
}

/// Exact per-rank task-document bytes of `dump` — the byte-conservation
/// reference, computed from the interface's size model without running
/// anything.
std::vector<std::uint64_t> doc_bytes_of(const macsio::Params& p, int dump) {
  const auto iface = macsio::make_interface(p.interface);
  const macsio::PartSpec spec =
      macsio::make_part_spec(p.part_bytes_at_dump(dump), p.vars_per_part);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(p.nprocs));
  for (int r = 0; r < p.nprocs; ++r)
    out[static_cast<std::size_t>(r)] = iface->task_doc_bytes(
        spec, r, dump, p.parts_of_rank(r), p.meta_size);
  return out;
}

std::uint64_t sum_of(const std::vector<std::uint64_t>& v) {
  std::uint64_t s = 0;
  for (std::uint64_t x : v) s += x;
  return s;
}

// ---------------------------------------------------- pipeline: Sedov stage

/// The paper's data-collection pipeline: simulate Castro-Sedov with N-to-N
/// plotfiles into a content-storing backend, read the last plotfile back,
/// and calibrate + validate the MACSio proxy. Seed-invariant by design: the
/// Sedov initial condition is analytic, so every seed runs the same case.
class SedovCharacterize final : public Workload {
 public:
  explicit SedovCharacterize(Scale scale) {
    config_.name = "perfbench-sedov";
    if (scale == Scale::kFull) {
      config_.ncell = 128;
      config_.max_level = 2;
      config_.max_step = 60;
      config_.plot_int = 10;
      config_.nprocs = 32;
    } else {
      config_.ncell = 32;
      config_.max_level = 1;
      config_.max_step = 10;
      config_.plot_int = 5;
      config_.nprocs = 4;
    }
  }
  const char* unit() const override { return "cell-steps"; }
  const char* op_unit() const override { return "plotfiles"; }

  void setup() override {
    // Warm-up: a reduced case through the same pipeline so allocator pools
    // and lazily initialized tables are populated before timing.
    core::CaseConfig warm = config_;
    warm.ncell = std::max(32, config_.ncell / 2);
    warm.max_step = 10;
    warm.plot_int = 5;
    warm.nprocs = std::min(8, config_.nprocs);
    pfs::MemoryBackend backend(true);
    core::CampaignOptions opts;
    opts.store_contents = true;
    (void)core::calibrate_and_validate(core::run_case(warm, opts, &backend));
  }

  RepOutcome rep(SpanLog* log) override {
    RepOutcome out;
    out.attempted = static_cast<std::uint64_t>(
        config_.max_step / config_.plot_int + 1);
    pfs::MemoryBackend backend(true);
    core::RunRecord run;
    const auto t0 = Clock::now();
    try {
      if (log == nullptr) {
        core::CampaignOptions opts;
        opts.store_contents = true;
        run = core::run_case(config_, opts, &backend);
      } else {
        run = traced_run_case(log, backend);
      }
    } catch (const std::exception& e) {
      out.failed = out.attempted;
      out.check(false, std::string("run_case threw: ") + e.what());
      return out;
    }
    out.unit_seconds = seconds_since(t0);

    std::int64_t cell_steps = 0;
    std::uint64_t plotted = 0;
    for (const amr::StepRecord& s : run.steps) {
      if (s.plotted) ++plotted;
      if (s.step == 0) continue;  // the initial record advances nothing
      for (std::int64_t c : s.cells_per_level) cell_steps += c;
    }
    out.units = static_cast<double>(cell_steps);
    const std::uint64_t outputs = run.total.steps.size();
    out.attempted = std::max<std::uint64_t>(plotted, 1);
    out.failed = outputs >= out.attempted ? 0 : out.attempted - outputs;
    out.check(outputs == plotted, "scanned plotfiles != plot events");

    // Read the last plotfile back from the content-storing backend.
    std::uint64_t read_bytes = 0;
    std::uint64_t fab_hash = Digest::fnv1a(nullptr, 0);
    int nfabs = 0;
    int finest = -1;
    try {
      Scope s(log, "plotfile.read_plotfile");
      if (outputs == 0) throw std::runtime_error("no plotfile was written");
      const std::string last_dir =
          run.inputs.plot_file +
          util::zero_pad(static_cast<std::uint64_t>(run.total.steps.back()), 5);
      const plotfile::Plotfile pf =
          plotfile::read_plotfile(backend, last_dir, true);
      finest = pf.finest_level;
      for (const auto& lev : pf.levels) {
        for (const mesh::Fab& fab : lev.fabs) {
          const auto data = fab.data();
          read_bytes += fab.byte_size();
          fab_hash = Digest::fnv1a(data.data(), data.size_bytes(), fab_hash);
          ++nfabs;
        }
      }
    } catch (const std::exception& e) {
      ++out.failed;
      out.check(false, std::string("read_plotfile threw: ") + e.what());
    }
    out.check(finest == run.nlevels - 1, "read-back finest level mismatch");

    core::ValidationResult v;
    try {
      Scope s(log, "core.calibrate_and_validate");
      v = core::calibrate_and_validate(run);
    } catch (const std::exception& e) {
      out.check(false, std::string("calibrate_and_validate threw: ") + e.what());
    }
    out.check(std::isfinite(v.mean_abs_rel_err), "proxy error not finite");
    out.check(v.proxy_stats.total_bytes > 0, "proxy wrote nothing");

    std::uint64_t table_bytes = 0;
    for (const auto& [key, bytes] : run.table) table_bytes += bytes;
    out.check(table_bytes == run.total_bytes,
              "size table does not sum to scanned bytes");

    Digest& d = out.digest;
    d.add("sim.steps", static_cast<std::uint64_t>(run.steps.size()));
    d.add("sim.cell_steps", cell_steps);
    d.add("sim.nlevels", run.nlevels);
    d.add("sim.final_time", run.steps.empty() ? 0.0 : run.steps.back().time);
    d.add("plot.outputs", outputs);
    d.add("plot.bytes", run.total_bytes);
    d.add("plot.files", run.nfiles);
    for (std::size_t i = 0; i < run.total.per_step.size(); ++i)
      d.add("plot.step" + std::to_string(i), run.total.per_step[i]);
    d.add("read.fabs", nfabs);
    d.add("read.bytes", read_bytes);
    d.add("read.hash", fab_hash);
    d.add("model.proxy_err", v.mean_abs_rel_err);
    d.add("model.proxy_err_max", v.max_abs_rel_err);
    d.add("model.growth", v.translation.calibration.best_growth);
    d.add("model.part_size", v.translation.part_size_fit.part_size);
    d.add("proxy.bytes", v.proxy_stats.total_bytes);
    d.add("proxy.files", v.proxy_stats.nfiles);

    out.layer["amr.steps"] = static_cast<double>(run.steps.size());
    out.layer["amr.cell_steps"] = static_cast<double>(cell_steps);
    out.layer["plotfile.files"] = static_cast<double>(run.nfiles);
    out.layer["plotfile.bytes"] = static_cast<double>(run.total_bytes);
    out.layer["plotfile.read_bytes"] = static_cast<double>(read_bytes);
    out.layer["model.proxy_err"] = v.mean_abs_rel_err;
    return out;
  }

 private:
  /// core::run_case composed from its public parts so each layer gets its
  /// own span: AmrCore::init, AmrCore::run (self time = advance + regrid),
  /// write_plot_for per output, scan_plotfiles, iostats aggregation. The
  /// digest check pins it to the same statistics run_case produces.
  core::RunRecord traced_run_case(SpanLog* log, pfs::StorageBackend& backend) {
    Scope whole(log, "core.run_case");
    core::RunRecord rec;
    rec.config = config_;
    rec.inputs = config_.to_inputs();
    iostats::TraceRecorder trace;
    const auto t0 = Clock::now();
    amr::AmrCore amr_core(rec.inputs);
    {
      Scope s(log, "amr.AmrCore.init");
      amr_core.init();
    }
    {
      Scope s(log, "amr.AmrCore.run");
      amr_core.run([&](const amr::AmrCore& c, std::int64_t step, double time) {
        Scope w(log, "core.write_plot_for");
        core::write_plot_for(c, step, time, backend, &trace);
      });
    }
    rec.wall_seconds = seconds_since(t0);
    rec.steps = amr_core.history();
    rec.nlevels = amr_core.num_levels();
    plotfile::ScanResult scan;
    {
      Scope s(log, "plotfile.scan_plotfiles");
      scan = plotfile::scan_plotfiles(backend, rec.inputs.plot_file);
    }
    {
      Scope s(log, "iostats.aggregate");
      rec.table = scan.table;
      rec.total_bytes = scan.total_bytes;
      rec.nfiles = scan.nfiles;
      rec.total = iostats::cumulative_series(rec.table, rec.inputs.ncells0());
      for (int l : iostats::levels_present(rec.table))
        rec.per_level.push_back(iostats::cumulative_series_level(
            rec.table, rec.inputs.ncells0(), l));
    }
    return rec;
  }

  core::CaseConfig config_;
};


// ----------------------------------------------------- pipeline: dump stage

/// The north-star machine-scale proxy dump: 131072 virtual ranks on the
/// event engine, two-phase aggregation, burst-buffer staging and the ebl
/// codec, followed by a SimFs replay of the write requests. The seed sets
/// macsio::Params::seed; the counting backend keeps no contents, so no
/// simulated statistic depends on it.
class MachineDump final : public Workload {
 public:
  MachineDump(Scale scale, std::uint64_t seed) {
    params_.nprocs = scale == Scale::kFull ? 131072 : 512;
    params_.aggregators = params_.nprocs / 64;
    params_.num_dumps = 1;
    params_.part_size = 32768;
    params_.avg_num_parts = 1.0;
    params_.stage_to_bb = true;
    params_.codec = "ebl";
    params_.codec_error_bound = 1.0e-3;
    params_.fill = macsio::FillMode::kSized;
    params_.seed = SeedRng(seed).next();
  }
  const char* unit() const override { return "rank-dumps"; }
  const char* op_unit() const override { return "rank-dumps"; }

  void setup() override {
    params_.validate();
    expected_docs_.clear();
    for (int d = 0; d < params_.num_dumps; ++d)
      expected_docs_.push_back(doc_bytes_of(params_, d));
    fs_config_ = campaign::reference_fs_config(params_.nprocs, true);
    // Warm-up: the same pipeline at 1/64 of the ranks.
    macsio::Params warm = params_;
    warm.nprocs = std::max(64, params_.nprocs / 64);
    warm.aggregators = std::max(1, warm.nprocs / 64);
    const auto engine = exec::make_engine(exec::EngineKind::kEvent, warm.nprocs);
    pfs::MemoryBackend backend(false);
    const macsio::DumpStats stats = macsio::run_macsio(*engine, warm, backend);
    pfs::SimFs fs(campaign::reference_fs_config(warm.nprocs, true));
    (void)fs.run(stats.requests);
  }

  RepOutcome rep(SpanLog* log) override {
    RepOutcome out;
    const std::uint64_t nprocs = static_cast<std::uint64_t>(params_.nprocs);
    out.attempted = nprocs * static_cast<std::uint64_t>(params_.num_dumps);
    obs::SelfProfiler prof;
    macsio::DumpStats stats;
    std::vector<pfs::IoResult> results;
    staging::StagingReport report;
    const auto t0 = Clock::now();
    try {
      std::unique_ptr<exec::Engine> engine;
      {
        Scope s(log, "exec.make_engine");
        engine = exec::make_engine(exec::EngineKind::kEvent, params_.nprocs);
      }
      if (log != nullptr) engine->set_profiler(&prof);
      pfs::MemoryBackend backend(false);
      {
        Scope s(log, "macsio.run_macsio");
        stats = macsio::run_macsio(*engine, params_, backend);
      }
      {
        Scope s(log, "pfs.SimFs.run.write");
        pfs::SimFs fs(fs_config_);
        results = fs.run(stats.requests);
      }
      {
        Scope s(log, "staging.staging_report");
        report = staging::staging_report(results);
      }
    } catch (const std::exception& e) {
      out.failed = out.attempted;
      out.check(false, std::string("machine dump threw: ") + e.what());
      return out;
    }
    out.unit_seconds = seconds_since(t0);
    out.units = static_cast<double>(out.attempted);

    // Byte conservation per rank-dump against the interface's size model.
    std::uint64_t docs = 0;
    std::uint64_t expected_total = 0;
    for (int d = 0; d < params_.num_dumps; ++d) {
      const auto& got = stats.task_bytes.at(static_cast<std::size_t>(d));
      const auto& want = expected_docs_[static_cast<std::size_t>(d)];
      for (std::size_t r = 0; r < want.size(); ++r)
        if (r >= got.size() || got[r] != want[r]) ++out.failed;
      docs += sum_of(got);
      expected_total += sum_of(want);
    }
    out.check(docs == expected_total, "task bytes != task_doc_bytes");
    out.check(stats.codec.total.raw_bytes == docs,
              "codec raw bytes != task document bytes");
    out.check(stats.codec.total.encoded_bytes < docs,
              "ebl codec did not shrink the documents");
    out.check(results.size() == stats.requests.size(),
              "SimFs did not serve every request");
    out.check(report.perceived.makespan > 0.0 &&
                  report.sustained.makespan >= report.perceived.makespan,
              "staging report makespans out of order");

    Digest& d = out.digest;
    d.add("dump.total_bytes", stats.total_bytes);
    d.add("dump.files", stats.nfiles);
    d.add("dump.requests", static_cast<std::uint64_t>(stats.requests.size()));
    d.add("codec.raw", stats.codec.total.raw_bytes);
    d.add("codec.encoded", stats.codec.total.encoded_bytes);
    d.add("codec.encode_s", stats.codec.total.encode_seconds);
    add_report(d, "write", report);

    out.layer["macsio.requests"] = static_cast<double>(stats.requests.size());
    out.layer["macsio.files"] = static_cast<double>(stats.nfiles);
    out.layer["codec.raw_bytes"] =
        static_cast<double>(stats.codec.total.raw_bytes);
    out.layer["codec.encoded_bytes"] =
        static_cast<double>(stats.codec.total.encoded_bytes);
    out.layer["pfs.requests"] = static_cast<double>(results.size());
    add_engine_counters(prof, out.layer);
    return out;
  }

  static void add_engine_counters(const obs::SelfProfiler& prof,
                                  std::map<std::string, double>& layer) {
    const obs::SelfProfSnapshot snap = prof.snapshot();
    const auto counter = [&](const char* k) {
      const auto it = snap.counters.find(k);
      return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto gauge = [&](const char* k) {
      const auto it = snap.gauges.find(k);
      return it == snap.gauges.end() ? 0.0 : it->second;
    };
    layer["exec.context_switches"] = counter("engine.event.context_switches");
    layer["exec.events_per_s"] = gauge("engine.event.events_per_sec");
    layer["exec.ready_queue_peak"] = gauge("engine.event.ready_queue_peak");
    layer["exec.slice_arena_bytes"] = gauge("engine.event.slice_arena_bytes");
  }

 private:
  macsio::Params params_;
  std::vector<std::vector<std::uint64_t>> expected_docs_;
  pfs::SimFsConfig fs_config_;
};

// -------------------------------------------------- pipeline: restart stage

/// Checkpoint restart: the dump byte path in reverse. Set-up writes one
/// aggregated, BB-staged, ebl-encoded checkpoint into a content-storing
/// backend (random-filled from the seed); the timed section reads it back
/// through run_restart (BB prefetch, decode, scatterv_group) and replays the
/// read requests through SimFs. The rank count is capped because
/// run_restart builds the whole restage plan on every rank (O(nprocs^2)).
class RestartRead final : public Workload {
 public:
  RestartRead(Scale scale, std::uint64_t seed) {
    params_.nprocs = scale == Scale::kFull ? 1024 : 64;
    params_.aggregators = params_.nprocs / 8;
    params_.num_dumps = 1;
    params_.part_size = 16384;
    params_.avg_num_parts = 1.0;
    params_.stage_to_bb = true;
    params_.restart = true;
    params_.restart_from_bb = true;
    params_.codec = "ebl";
    params_.codec_error_bound = 1.0e-3;
    params_.fill = macsio::FillMode::kReal;
    params_.seed = SeedRng(seed).next();
  }
  const char* unit() const override { return "rank-restarts"; }
  const char* op_unit() const override { return "rank-restarts"; }

  void setup() override {
    params_.validate();
    const int dump = params_.num_dumps - 1;
    backend_ = std::make_unique<pfs::MemoryBackend>(true);
    const auto engine =
        exec::make_engine(exec::EngineKind::kEvent, params_.nprocs);
    const macsio::DumpStats dump_stats =
        macsio::run_macsio(*engine, params_, *backend_);

    topo_ = staging::AggTopology::make(params_.nprocs, params_.aggregators);
    docs_ = doc_bytes_of(params_, dump);
    files_.assign(static_cast<std::size_t>(params_.nprocs), std::string());
    expected_hash_.assign(static_cast<std::size_t>(params_.nprocs), 0);
    std::uint64_t offset = 0;
    for (int r = 0; r < params_.nprocs; ++r) {
      const auto i = static_cast<std::size_t>(r);
      files_[i] = macsio::aggregated_file_path(params_, topo_->group_of(r), dump);
      if (r > 0 && files_[i] != files_[i - 1]) offset = 0;
      // Hash what the checkpoint holds for rank r, read straight from the
      // backend — independent of the restart path under test.
      expected_hash_[i] = macsio::restart_hash(
          backend_->read_range(files_[i], offset, docs_[i]));
      offset += docs_[i];
    }
    codec_ = codec::make_codec(params_.codec_spec());

    setup_digest_ = Digest();
    setup_digest_.add("checkpoint.total_bytes", dump_stats.total_bytes);
    setup_digest_.add("checkpoint.files", dump_stats.nfiles);
    setup_digest_.add("checkpoint.docs", sum_of(docs_));
    setup_digest_.add("checkpoint.task_bytes",
                      sum_of(dump_stats.task_bytes.at(static_cast<std::size_t>(dump))));
    setup_digest_.add("checkpoint.encoded", dump_stats.codec.total.encoded_bytes);
  }

  RepOutcome rep(SpanLog* log) override {
    RepOutcome out;
    out.attempted = static_cast<std::uint64_t>(params_.nprocs);
    obs::SelfProfiler prof;
    staging::RestagePlan plan;
    macsio::RestartStats rs;
    std::vector<pfs::IoResult> results;
    staging::StagingReport report;
    const auto t0 = Clock::now();
    try {
      std::unique_ptr<exec::Engine> engine;
      {
        Scope s(log, "exec.make_engine");
        engine = exec::make_engine(exec::EngineKind::kEvent, params_.nprocs);
      }
      if (log != nullptr) engine->set_profiler(&prof);
      {
        Scope s(log, "staging.make_restage_plan");
        plan = staging::make_restage_plan(files_, docs_, *codec_, &*topo_);
      }
      {
        Scope s(log, "macsio.run_restart");
        rs = macsio::run_restart(*engine, params_, *backend_);
      }
      {
        Scope s(log, "pfs.SimFs.run.read");
        pfs::SimFs fs(campaign::reference_fs_config(params_.nprocs, true));
        results = fs.run(rs.requests);
      }
      {
        Scope s(log, "staging.staging_report");
        report = staging::staging_report(results);
      }
    } catch (const std::exception& e) {
      out.failed = out.attempted;
      out.check(false, std::string("restart threw: ") + e.what());
      return out;
    }
    out.unit_seconds = seconds_since(t0);
    out.units = static_cast<double>(params_.nprocs);

    const auto n = static_cast<std::size_t>(params_.nprocs);
    const bool shaped = rs.task_bytes.size() == n && rs.task_hash.size() == n &&
                        rs.slices.size() == n && plan.slices.size() == n;
    out.check(shaped, "restart stats are not one entry per rank");
    if (!shaped) {
      out.failed = out.attempted;
      return out;
    }
    std::uint64_t hash_of_hashes = Digest::fnv1a(nullptr, 0);
    for (std::size_t r = 0; r < n; ++r) {
      const bool ok = rs.task_bytes[r] == docs_[r] &&
                      rs.task_hash[r] == expected_hash_[r] &&
                      rs.slices[r].offset == plan.slices[r].offset &&
                      rs.slices[r].encoded_bytes == plan.slices[r].encoded_bytes;
      if (!ok) ++out.failed;
      hash_of_hashes =
          Digest::fnv1a(&rs.task_hash[r], sizeof rs.task_hash[r], hash_of_hashes);
    }
    out.check(out.failed == 0, "restart recovered a document that differs");
    out.check(rs.raw_bytes == sum_of(docs_), "restart raw bytes != task_doc_bytes");
    out.check(rs.encoded_bytes == plan.encoded_bytes(),
              "restart encoded bytes != restage plan");
    out.check(results.size() == rs.requests.size(),
              "SimFs did not serve every read");

    Digest& d = out.digest;
    d = setup_digest_;
    d.add("restart.raw", rs.raw_bytes);
    d.add("restart.encoded", rs.encoded_bytes);
    d.add("restart.decode_gate", rs.decode_gate);
    d.add("restart.scatter_s", rs.scatter_seconds);
    d.add("restart.requests", static_cast<std::uint64_t>(rs.requests.size()));
    add_report(d, "read", report);
    out.seeded.add("restart.hashes", hash_of_hashes);

    out.layer["macsio.requests"] = static_cast<double>(rs.requests.size());
    out.layer["codec.raw_bytes"] = static_cast<double>(rs.raw_bytes);
    out.layer["codec.encoded_bytes"] = static_cast<double>(rs.encoded_bytes);
    out.layer["pfs.requests"] = static_cast<double>(results.size());
    MachineDump::add_engine_counters(prof, out.layer);
    return out;
  }

 private:
  macsio::Params params_;
  std::unique_ptr<pfs::MemoryBackend> backend_;
  std::optional<staging::AggTopology> topo_;
  std::vector<std::string> files_;
  std::vector<std::uint64_t> docs_;
  std::vector<std::uint64_t> expected_hash_;
  std::unique_ptr<codec::Codec> codec_;
  Digest setup_digest_;
};

// ----------------------------------------------------------- campaign_serve

bool same_result(const campaign::CellResult& a, const campaign::CellResult& b) {
  return a.raw_bytes == b.raw_bytes && a.encoded_bytes == b.encoded_bytes &&
         a.total_bytes == b.total_bytes && a.nfiles == b.nfiles &&
         a.encode_seconds == b.encode_seconds &&
         a.dump_seconds == b.dump_seconds &&
         a.sustained_seconds == b.sustained_seconds &&
         a.perceived_bandwidth == b.perceived_bandwidth &&
         a.sustained_bandwidth == b.sustained_bandwidth &&
         a.critical_stage == b.critical_stage &&
         a.critical_frac == b.critical_frac &&
         a.binding_resource == b.binding_resource &&
         a.restart_seconds == b.restart_seconds &&
         a.restart_decode_gate == b.restart_decode_gate;
}

void add_result(Digest& d, const campaign::CellResult& r) {
  d.add("raw", r.raw_bytes);
  d.add("enc", r.encoded_bytes);
  d.add("tot", r.total_bytes);
  d.add("files", r.nfiles);
  d.add("encode_s", r.encode_seconds);
  d.add("dump_s", r.dump_seconds);
  d.add("sust_s", r.sustained_seconds);
  d.add("pbw", r.perceived_bandwidth);
  d.add("sbw", r.sustained_bandwidth);
  d.add("stage", r.critical_stage);
  d.add("frac", r.critical_frac);
  d.add("bind", r.binding_resource);
  d.add("restart_s", r.restart_seconds);
  d.add("decode_gate", r.restart_decode_gate);
}

/// The service workload: the Table III grid (restarts on, serial and event
/// cells) through CampaignExecutor cold from an empty cache, cache saved and
/// reloaded, the grid re-run warm, PredictService fitted, then a closed-loop
/// single-client stream of seeded what-if queries at configurations the
/// grid never simulated.
class CampaignServe final : public Workload {
 public:
  CampaignServe(Scale scale, std::uint64_t seed, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {
    spec_ = campaign::table3_grid();
    if (scale == Scale::kFull) {
      jobs_ = 4;
      pool_ = 4096;
      stream_ = 102400;
    } else {
      spec_.engines = {exec::EngineKind::kSerial};
      spec_.rank_counts = {8};
      jobs_ = 2;
      pool_ = 256;
      stream_ = 2048;
    }
  }
  const char* unit() const override { return "cells"; }
  const char* op_unit() const override { return "cells+queries"; }

  void setup() override {
    cells_ = campaign::make_grid(spec_);
    std::set<std::string> keys;
    for (campaign::CellConfig& c : cells_) {
      c.study.restart = true;
      c.study.restart_from_bb = c.params.stage_to_bb;
      keys.insert(campaign::canonical_key(c));
    }
    distinct_cells_ = keys.size();

    // Seeded what-if queries: rank counts, codecs and bounds the grid never
    // ran, over the grid's interfaces and stagings.
    SeedRng rng(seed_);
    queries_.clear();
    while (queries_.size() < pool_) {
      const campaign::CellConfig& base =
          cells_[rng.next() % cells_.size()];
      campaign::CellConfig q = base;
      const int ranks = rng.uniform(9, 2048);
      if (std::find(spec_.rank_counts.begin(), spec_.rank_counts.end(),
                    ranks) != spec_.rank_counts.end())
        continue;
      q.name = "whatif/" + std::to_string(queries_.size());
      q.params.nprocs = ranks;
      if (base.params.aggregators > 0)
        q.params.aggregators = std::max(1, ranks / spec_.agg_factor);
      q.study.codec_var_bounds.clear();
      switch (rng.uniform(0, 3)) {
        case 0: q.study.codec = "identity"; break;
        case 1: q.study.codec = "lossless"; break;
        case 2:
          q.study.codec = "ebl";
          q.study.codec_error_bound = std::pow(10.0, -4.0 + 2.0 * rng.unit());
          break;
        default:
          q.study.codec = "ebl";
          q.study.codec_var_bounds =
              util::format_g(std::pow(10.0, -3.0 + rng.unit()), 3) + "," +
              util::format_g(std::pow(10.0, -6.0 + 2.0 * rng.unit()), 3);
          break;
      }
      campaign::resolved_params(q).validate();
      if (keys.count(campaign::canonical_key(q)) != 0) continue;
      queries_.push_back(std::move(q));
    }
    std::filesystem::create_directories(workdir_);
    cache_path_ = workdir_ + "/campaign-cache.json";
    std::filesystem::remove(cache_path_);

    // Warm-up: 16 cells spread over the grid, serially.
    const std::size_t stride = std::max<std::size_t>(1, cells_.size() / 16);
    for (std::size_t i = 0; i < cells_.size(); i += stride)
      (void)campaign::run_cell(cells_[i]);
  }

  RepOutcome rep(SpanLog* log) override {
    RepOutcome out;
    const std::size_t ncells = cells_.size();
    out.attempted = 2 * ncells + stream_;
    campaign::ExecutorOptions opts;
    opts.jobs = jobs_;

    std::size_t unseen = 0;
    {
      Scope s(log, "campaign.canonical_key");
      std::set<std::string> keys;
      for (const campaign::CellConfig& c : cells_)
        keys.insert(campaign::canonical_key(c));
      for (const campaign::CellConfig& q : queries_)
        unseen += keys.count(campaign::canonical_key(q)) == 0 ? 1 : 0;
    }
    out.check(unseen == queries_.size(), "a what-if query was simulated");

    campaign::CampaignExecutor cold(opts);
    std::vector<campaign::CellOutcome> outs;
    const auto t0 = Clock::now();
    {
      Scope s(log, "campaign.CampaignExecutor.run.cold");
      outs = cold.run(cells_);
    }
    out.unit_seconds = seconds_since(t0);
    out.units = static_cast<double>(cold.stats().executed);
    {
      Scope s(log, "campaign.ResultCache.save");
      cold.cache().save(cache_path_);
    }
    campaign::CampaignExecutor warm(opts);
    std::size_t loaded = 0;
    {
      Scope s(log, "campaign.ResultCache.load");
      loaded = warm.cache().load(cache_path_);
    }
    std::vector<campaign::CellOutcome> warm_outs;
    {
      Scope s(log, "campaign.CampaignExecutor.run.warm");
      warm_outs = warm.run(cells_);
    }
    const double cache_bytes =
        static_cast<double>(std::filesystem::file_size(cache_path_));
    std::filesystem::remove(cache_path_);

    const campaign::ExecutorStats& cs = cold.stats();
    const campaign::ExecutorStats& ws = warm.stats();
    out.check(cs.executed + cs.cache_hits == ncells,
              "cold: executed + hits != cells");
    out.check(cs.executed == distinct_cells_, "cold: executed != distinct keys");
    out.check(ws.executed == 0, "warm pass executed cells");
    out.check(ws.executed + ws.cache_hits == ncells,
              "warm: executed + hits != cells");
    out.check(loaded == distinct_cells_, "cache reload lost entries");
    bool warm_equal = warm_outs.size() == outs.size();
    for (std::size_t i = 0; warm_equal && i < outs.size(); ++i)
      warm_equal = same_result(outs[i].result, warm_outs[i].result);
    out.check(warm_equal, "warm results differ from cold results");
    for (const campaign::CellOutcome& o : outs) {
      const campaign::CellResult& r = o.result;
      const bool ok = r.raw_bytes > 0 && std::isfinite(r.dump_seconds) &&
                      r.dump_seconds > 0 && r.restart_seconds > 0;
      if (!ok) ++out.failed;
    }
    if (!warm_equal) out.failed += ncells;

    campaign::PredictService service;
    try {
      Scope s(log, "campaign.PredictService.fit");
      service.fit(cells_, outs);
    } catch (const std::exception& e) {
      out.failed += stream_;
      out.check(false, std::string("PredictService::fit threw: ") + e.what());
      return out;
    }

    // Closed loop, one client: each query is sent when the previous answer
    // is back. A throwing or non-finite answer counts as a failed query.
    std::vector<double> latency(stream_);
    const auto q0 = Clock::now();
    {
      Scope s(log, "campaign.PredictService.predict");
      for (std::size_t i = 0; i < stream_; ++i) {
        const campaign::CellConfig& q = queries_[i % queries_.size()];
        const auto a = Clock::now();
        bool ok = false;
        campaign::PredictService::Prediction p;
        try {
          p = service.predict(q);
          ok = std::isfinite(p.dump_seconds) && p.dump_seconds > 0;
        } catch (const std::exception&) {
          ok = false;
        }
        latency[i] = std::chrono::duration<double>(Clock::now() - a).count();
        if (!ok) ++out.failed;
        if (i < queries_.size()) {
          out.seeded.add("q.dump_s", p.dump_seconds);
          out.seeded.add("q.restart_s", p.restart_seconds);
          out.seeded.add("q.bytes", p.encoded_bytes);
        }
      }
    }
    const double stream_s = seconds_since(q0);

    Digest& d = out.digest;
    d.add("cells", static_cast<std::uint64_t>(ncells));
    d.add("executed", cs.executed);
    d.add("hits", cs.cache_hits);
    for (const campaign::CellOutcome& o : outs) {
      d.add("cell", o.name);
      add_result(d, o.result);
    }
    d.add("fit.cells", static_cast<std::uint64_t>(service.fitted_cells()));
    d.add("fit.strata", static_cast<std::uint64_t>(service.strata()));
    d.add("fit.calibration_err", service.calibration_error());

    const double p50 = percentile_of(latency, 0.50);
    out.layer["campaign.steals"] = static_cast<double>(cs.steals);
    out.layer["campaign.cache_bytes"] = cache_bytes;
    out.layer["campaign.hit_ratio"] =
        static_cast<double>(ws.cache_hits) / static_cast<double>(ncells);
    out.layer["campaign.strata"] = static_cast<double>(service.strata());
    out.layer["campaign.calibration_err"] = service.calibration_error();
    out.layer["campaign.predict_qps"] =
        static_cast<double>(stream_) / stream_s;
    out.layer["campaign.predict_p50_us"] = 1e6 * p50;
    out.layer["campaign.predict_p99_us"] = 1e6 * percentile_of(latency, 0.99);
    cold_seconds_.push_back(out.unit_seconds);
    return out;
  }

  /// Serial pass of run_cell over the grid: per-cell host time p50/max and
  /// the executor's parallel efficiency against the cold runs.
  void diagnose(SpanLog* log, std::map<std::string, double>& layer) override {
    std::vector<double> cell_s;
    cell_s.reserve(cells_.size());
    double total = 0.0;
    std::set<std::string> seen;
    for (const campaign::CellConfig& c : cells_) {
      if (!seen.insert(campaign::canonical_key(c)).second) continue;
      const auto t0 = Clock::now();
      {
        Scope s(log, "campaign.run_cell");
        (void)campaign::run_cell(c);
      }
      cell_s.push_back(seconds_since(t0));
      total += cell_s.back();
    }
    const double p50 = median(cell_s);
    layer["campaign.cell_p50_ms"] = 1e3 * p50;
    layer["campaign.cell_max_ms"] =
        1e3 * *std::max_element(cell_s.begin(), cell_s.end());
    const double cold = median(cold_seconds_);
    layer["campaign.parallel_eff"] =
        cold > 0 ? total / (static_cast<double>(jobs_) * cold) : 0.0;
  }

 private:
  std::uint64_t seed_;
  std::string workdir_;
  campaign::GridSpec spec_;
  int jobs_ = 1;
  std::size_t pool_ = 0;
  std::size_t stream_ = 0;
  std::vector<campaign::CellConfig> cells_;
  std::size_t distinct_cells_ = 0;
  std::vector<campaign::CellConfig> queries_;
  std::string cache_path_;
  std::vector<double> cold_seconds_;
};

// ----------------------------------------------------------- paper_pipeline

/// The paper's pipeline end to end, one stage after the other: characterize
/// Sedov, dump the proxy at machine scale, read a checkpoint back. The three
/// stages run as one workload because alone the Sedov and restart stages
/// are not steady enough on a shared host to gate on (see README.md).
class PaperPipeline final : public Workload {
 public:
  PaperPipeline(Scale scale, std::uint64_t seed)
      : sedov_(scale), dump_(scale, seed), restart_(scale, seed) {}
  const char* unit() const override { return "rank-dumps+rank-restarts"; }
  const char* op_unit() const override {
    return "plotfiles+rank-dumps+rank-restarts";
  }

  void setup() override {
    sedov_.setup();
    dump_.setup();
    restart_.setup();
  }

  RepOutcome rep(SpanLog* log) override {
    const auto t0 = Clock::now();
    RepOutcome out = sedov_.rep(log);
    const RepOutcome dump = dump_.rep(log);
    const RepOutcome restart = restart_.rep(log);
    out.merge(dump);
    out.merge(restart);
    out.units = dump.units + restart.units;
    out.unit_seconds = seconds_since(t0);
    return out;
  }

 private:
  SedovCharacterize sedov_;
  MachineDump dump_;
  RestartRead restart_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, Scale scale,
                                        std::uint64_t seed,
                                        const std::string& workdir) {
  if (name == "paper_pipeline")
    return std::make_unique<PaperPipeline>(scale, seed);
  if (name == "campaign_serve")
    return std::make_unique<CampaignServe>(scale, seed, workdir);
  return nullptr;
}

}  // namespace perfbench
