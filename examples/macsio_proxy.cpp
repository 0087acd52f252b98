/// \file macsio_proxy.cpp
/// The MACSio-compatible proxy I/O executable — accepts the paper's Table II
/// argument set (Listing-1 invocations work verbatim, minus jsrun) and runs
/// the dump loop over virtual ranks. --engine picks the execution substrate:
/// the deterministic discrete-event engine (default; handles 100k+ virtual
/// ranks) or spmd OS threads through the simulated MPI layer (including MIF
/// baton-passing).
///
///   macsio_proxy --interface miftmpl --parallel_file_mode MIF 8 \
///     --num_dumps 20 --part_size 1550000 --avg_num_parts 1 \
///     --vars_per_part 1 --compute_time 0.5 --meta_size 0 \
///     --dataset_growth 1.013075 --nprocs 8 --out macsio_run
///
/// Observability surface: --trace_out (buffered Chrome-trace export, byte
/// identical across engines), --trace_sample N (streaming bounded-memory
/// export keeping N representative ranks — the machine-scale path),
/// --metrics_out, --critical_path, --util_out (per-resource utilization
/// ledger), --prof_out (host-side self-profiling of the engine itself),
/// --explain / --explain_out (predictive bottleneck report: span-DAG slack,
/// per-resource what-if makespans at 1.5x/2x relief, shadow prices).
///
/// Campaign surface: --campaign sweeps the configuration through the sharded
/// campaign executor (--jobs worker threads, --cache persistent result
/// cache, --campaign_csv canonical CSV) and --predict N answers a
/// dump/restart-time what-if at a never-simulated rank count from the
/// calibrated Eq. 3-style fit.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "campaign/predict.hpp"
#include "campaign/report.hpp"
#include "core/proxy_study.hpp"
#include "exec/engine.hpp"
#include "iostats/aggregate.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/selfprof.hpp"
#include "obs/span.hpp"
#include "obs/stream.hpp"
#include "obs/whatif.hpp"
#include "pfs/timeline.hpp"
#include "staging/aggregator.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace amrio;
  std::vector<std::string> args;
  exec::EngineKind engine_kind = exec::EngineKind::kEvent;
  bool to_disk = false;
  std::string out_root = "macsio_run";
  std::string trace_out;
  std::string metrics_out;
  std::string util_out;
  std::string prof_out;
  std::string explain_out;
  int trace_sample = 0;
  bool want_critical = false;
  bool want_explain = false;
  bool no_approx_cp = false;
  bool campaign_mode = false;
  int jobs = 1;
  std::string cache_path;
  std::string campaign_csv;
  int predict_ranks = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--engine" && i + 1 < argc) {
      try {
        engine_kind = exec::engine_kind_from_name(argv[++i]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "macsio_proxy: %s\n", e.what());
        return 2;
      }
    } else if (a == "--disk") {
      to_disk = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_root = argv[++i];
    } else if (a == "--trace_out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (a == "--trace_sample" && i + 1 < argc) {
      trace_sample = std::atoi(argv[++i]);
      if (trace_sample < 0) {
        std::fprintf(stderr, "macsio_proxy: --trace_sample must be >= 0\n");
        return 2;
      }
    } else if (a == "--metrics_out" && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (a == "--util_out" && i + 1 < argc) {
      util_out = argv[++i];
    } else if (a == "--prof_out" && i + 1 < argc) {
      prof_out = argv[++i];
    } else if (a == "--critical_path") {
      want_critical = true;
    } else if (a == "--no_approx_critical_path") {
      no_approx_cp = true;
    } else if (a == "--explain") {
      want_explain = true;
    } else if (a == "--explain_out" && i + 1 < argc) {
      explain_out = argv[++i];
      want_explain = true;
    } else if (a == "--campaign") {
      campaign_mode = true;
    } else if (a == "--jobs" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
      if (jobs < 1) {
        std::fprintf(stderr, "macsio_proxy: --jobs must be >= 1\n");
        return 2;
      }
    } else if (a == "--cache" && i + 1 < argc) {
      cache_path = argv[++i];
    } else if (a == "--campaign_csv" && i + 1 < argc) {
      campaign_csv = argv[++i];
      campaign_mode = true;
    } else if (a == "--predict" && i + 1 < argc) {
      predict_ranks = std::atoi(argv[++i]);
      if (predict_ranks < 1) {
        std::fprintf(stderr, "macsio_proxy: --predict needs a rank count\n");
        return 2;
      }
      campaign_mode = true;
    } else if (a == "--help") {
      std::printf(
          "macsio_proxy: MACSio-compatible proxy I/O application\n"
          "  Table II arguments: --interface --parallel_file_mode --num_dumps\n"
          "  --part_size --avg_num_parts --vars_per_part --compute_time\n"
          "  --meta_size --dataset_growth, plus --nprocs N.\n"
          "  staging: --aggregators N --agg_link_bw B --staging none|bb\n"
          "  codec:   --codec identity|lossless|ebl --codec_error_bound E\n"
          "           --codec_throughput B --codec_decode_throughput B\n"
          "  restart: --restart (read the last dump back)\n"
          "           --read_staging none|bb --prefetch N\n"
          "  extras: --engine event|spmd (execution substrate; event,\n"
          "          the default, scales to 100k+ virtual ranks),\n"
          "          --disk (write real files), --out DIR (disk root)\n"
          "  observability: --trace_out FILE (Chrome-trace/Perfetto JSON of\n"
          "          the virtual-time spans; ranks as threads),\n"
          "          --trace_sample N (with --trace_out: stream the trace\n"
          "          with bounded memory, keeping N evenly spaced ranks\n"
          "          verbatim — plus the driver track and aggregators —\n"
          "          and folding the rest into per-stage envelope spans;\n"
          "          the machine-scale path for --engine event),\n"
          "          --metrics_out FILE (metrics snapshot; .csv or JSON),\n"
          "          --critical_path (print the critical-path summary\n"
          "          without writing any trace file; under --trace_sample\n"
          "          it falls back to a per-stage envelope approximation),\n"
          "          --no_approx_critical_path (refuse that approximation:\n"
          "          exit non-zero instead of printing an approximate\n"
          "          critical path under --trace_sample),\n"
          "          --util_out FILE (per-resource utilization ledger as\n"
          "          JSON; also prints the bottleneck table),\n"
          "          --explain (predictive bottleneck report: per resource\n"
          "          group its utilization, slack-weighted exposure, the\n"
          "          what-if makespan at 1.5x/2x capacity relief, and the\n"
          "          shadow price — seconds of makespan per +1x capacity),\n"
          "          --explain_out FILE (write that report as JSON),\n"
          "          --prof_out FILE (host wall-clock self-profile of the\n"
          "          engine: events/sec, context switches, ready-queue\n"
          "          high-water, arena bytes; NOT engine-invariant).\n"
          "          Any virtual-time flag also replays the request stream\n"
          "          through the reference PFS/BB model so the artifacts\n"
          "          hold every stage.\n"
          "  campaign: --campaign (sweep this configuration over the codec\n"
          "          axis — and over rank scalings when predicting — through\n"
          "          the sharded campaign executor instead of one run),\n"
          "          --jobs N (executor worker threads; 1 = inline),\n"
          "          --cache FILE (persistent JSON result cache; a re-run\n"
          "          resolves warm without simulating), --campaign_csv FILE\n"
          "          (canonical campaign CSV: virtual-clock columns only),\n"
          "          --predict N (fit the campaign predict service and\n"
          "          answer the dump/restart-time what-if at N ranks —\n"
          "          a rank count the campaign never simulated — printing\n"
          "          the fit's calibration error next to the answer).\n");
      return 0;
    } else {
      args.push_back(a);
    }
  }
  if (trace_sample > 0 && trace_out.empty()) {
    std::fprintf(stderr,
                 "macsio_proxy: --trace_sample only affects --trace_out; "
                 "ignoring it\n");
    trace_sample = 0;
  }

  macsio::Params params;
  try {
    params = macsio::Params::from_cli(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "macsio_proxy: %s\n", e.what());
    return 2;
  }
  std::printf("invocation: %s\n", params.to_command_line().c_str());

  if (campaign_mode) {
    // Sweep the configured workload over the codec axis through
    // core::study_sweep — the campaign executor behind it dedupes repeated
    // configurations and honors --jobs/--cache. When predicting we also run
    // 2x/4x rank scalings so each stratum holds enough points for a fit.
    std::vector<core::StudyOptions> variants;
    for (const char* codec : {"identity", "lossless", "ebl"}) {
      core::StudyOptions v;
      v.engine = engine_kind;
      v.codec = codec;
      if (std::string(codec) == "ebl") {
        v.codec_error_bound =
            params.codec_error_bound > 0 ? params.codec_error_bound : 1.0e-3;
        v.codec_var_bounds = params.codec_var_bounds;
      }
      v.codec_throughput = params.codec_throughput;
      v.codec_decode_throughput = params.codec_decode_throughput;
      v.restart = params.restart;
      v.restart_from_bb = params.restart_from_bb;
      variants.push_back(std::move(v));
    }
    campaign::ExecutorOptions exec_opts;
    exec_opts.jobs = jobs;
    exec_opts.cache_path = cache_path;
    std::vector<int> rank_points = {params.nprocs};
    if (predict_ranks > 0) {
      rank_points.push_back(params.nprocs * 2);
      rank_points.push_back(params.nprocs * 4);
    }
    std::vector<campaign::CellConfig> cells;
    std::vector<campaign::CellOutcome> outcomes;
    campaign::ExecutorStats stats;
    for (const int ranks : rank_points) {
      macsio::Params base = params;
      base.nprocs = ranks;
      core::StudySweepResult sweep =
          core::study_sweep(base, variants, exec_opts);
      for (auto& c : sweep.cells) {
        c.name += "/r" + std::to_string(ranks);
        cells.push_back(std::move(c));
      }
      for (auto& o : sweep.outcomes) {
        o.name += "/r" + std::to_string(ranks);
        outcomes.push_back(std::move(o));
      }
      stats.cells += sweep.stats.cells;
      stats.executed += sweep.stats.executed;
      stats.cache_hits += sweep.stats.cache_hits;
    }
    std::printf("campaign: %llu cells, %d worker(s): %llu executed, "
                "%llu cache hits\n",
                static_cast<unsigned long long>(stats.cells), jobs,
                static_cast<unsigned long long>(stats.executed),
                static_cast<unsigned long long>(stats.cache_hits));
    util::TextTable table(
        {"cell", "encoded", "dump s", "critical stage", "binding"});
    for (const auto& o : outcomes)
      table.add_row({o.name, util::human_bytes(o.result.encoded_bytes),
                     util::format_g(o.result.dump_seconds, 4),
                     o.result.critical_stage, o.result.binding_resource});
    std::printf("%s", table.to_string().c_str());
    if (!campaign_csv.empty()) {
      util::CsvWriter csv(campaign_csv);
      campaign::write_csv(csv, cells, outcomes);
      std::printf("csv: %s\n", csv.path().c_str());
    }
    if (predict_ranks > 0) {
      campaign::PredictService predict;
      predict.fit(cells, outcomes);
      campaign::CellConfig query = cells.front();
      query.name = "whatif/r" + std::to_string(predict_ranks);
      query.params.nprocs = predict_ranks;
      const auto answer = predict.predict(query);
      std::printf("%s\n", predict.report().c_str());
      std::printf("what-if %s (never simulated): dump %.6fs%s, "
                  "%llu encoded bytes (stratum %s)\n",
                  query.name.c_str(), answer.dump_seconds,
                  answer.restart_seconds > 0
                      ? (", restart " + util::format_g(answer.restart_seconds, 6) + "s").c_str()
                      : "",
                  static_cast<unsigned long long>(answer.encoded_bytes),
                  answer.exact_stratum ? answer.stratum.c_str() : "global");
    }
    return 0;
  }

  std::unique_ptr<pfs::StorageBackend> backend;
  if (to_disk) backend = std::make_unique<pfs::PosixBackend>(out_root);
  else backend = std::make_unique<pfs::MemoryBackend>(false);

  iostats::TraceRecorder trace;
  const bool sampling = trace_sample > 0;
  const bool observe = !trace_out.empty() || !metrics_out.empty() ||
                       !util_out.empty() || want_critical || want_explain;
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::ResourceLedger ledger;
  std::unique_ptr<obs::TraceStream> stream;
  if (sampling) {
    obs::TraceStream::Options opt;
    opt.path = trace_out;
    opt.sample.nranks = params.nprocs;
    opt.sample.sample = trace_sample;
    if (params.aggregators > 0) {
      // Aggregator ranks carry the ship/encode gates; always keep them.
      const auto topo =
          staging::AggTopology::make(params.nprocs, params.aggregators);
      for (int g = 0; g < topo.ngroups(); ++g)
        opt.sample.keep_extra.push_back(topo.aggregator_of_group(g));
    }
    stream = std::make_unique<obs::TraceStream>(std::move(opt));
  }
  obs::Probe probe;
  if (observe) {
    probe.tracer = sampling ? static_cast<obs::SpanSink*>(stream.get())
                            : static_cast<obs::SpanSink*>(&tracer);
    probe.metrics = &metrics;
    // --explain needs the utilization ledger for its per-group rows.
    if (!util_out.empty() || want_explain) probe.ledger = &ledger;
  }
  obs::SelfProfiler prof;
  obs::SelfProfiler* prof_ptr = prof_out.empty() ? nullptr : &prof;

  std::unique_ptr<exec::Engine> engine;
  try {
    engine = exec::make_engine(engine_kind, params.nprocs);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "macsio_proxy: %s\n", e.what());
    return 2;
  }
  if (prof_ptr != nullptr) engine->set_profiler(prof_ptr);
  std::printf("running %d ranks on the %s engine...\n", params.nprocs,
              engine->name());
  macsio::DumpStats stats;
  {
    obs::SelfProfiler::ScopedPhase ph(prof_ptr, "proxy.dump");
    stats = macsio::run_macsio(*engine, params, *backend, &trace, probe);
  }

  util::TextTable table({"dump", "bytes", "max task bytes", "min task bytes"});
  for (std::size_t d = 0; d < stats.bytes_per_dump.size(); ++d) {
    const auto& tb = stats.task_bytes[d];
    table.add_row(
        {std::to_string(d), util::human_bytes(stats.bytes_per_dump[d]),
         util::human_bytes(*std::max_element(tb.begin(), tb.end())),
         util::human_bytes(*std::min_element(tb.begin(), tb.end()))});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("total %s across %llu files\n",
              util::human_bytes(stats.total_bytes).c_str(),
              static_cast<unsigned long long>(stats.nfiles));
  if (params.codec_spec().enabled()) {
    std::printf("codec %s: %s raw -> %s on the wire/tier (%.2fx), "
                "%.3fs encode cpu\n",
                params.codec.c_str(),
                util::human_bytes(stats.codec.total.raw_bytes).c_str(),
                util::human_bytes(stats.codec.total.encoded_bytes).c_str(),
                stats.codec.total.ratio(), stats.codec.total.encode_seconds);
  }

  // Reference PFS/BB model for the observability replay: timed alongside
  // each driver phase so the trace holds every stage — the driver spans
  // recorded above (encode/ship/scatter/decode and the dump/restart phases)
  // plus the replay's pfs_write/bb_absorb/bb_drain/bb_prefetch/bb_read
  // spans — and so the dump and restart timelines land in separate ledger
  // epochs (each is an independent virtual clock starting at zero).
  pfs::SimFsConfig obs_cfg;
  obs_cfg.bb.enabled = params.stage_to_bb || params.restart_from_bb;
  if (obs_cfg.bb.enabled) {
    obs_cfg.bb.ranks_per_node = 16;
    obs_cfg.bb.nodes = params.nprocs / 16 > 1 ? params.nprocs / 16 : 1;
  }
  pfs::SimFs obs_fs(obs_cfg);
  if (observe) {
    obs::SelfProfiler::ScopedPhase ph(prof_ptr, "proxy.pfs_replay");
    obs_fs.run(stats.requests, probe);
  }

  macsio::RestartStats restart;
  if (params.restart) {
    ledger.begin_epoch();  // the restart is a fresh virtual timeline
    obs::SelfProfiler::ScopedPhase ph(prof_ptr, "proxy.restart");
    restart = macsio::run_restart(*engine, params, *backend, &trace, probe);
    std::printf(
        "restart (dump %d, %s): %s decoded image, %s fetched off the %s, "
        "decode gate %.3gs, scatter %.3gs\n",
        restart.dump, params.restart_from_bb ? "prefetched bb" : "cold pfs",
        util::human_bytes(restart.raw_bytes).c_str(),
        util::human_bytes(restart.encoded_bytes).c_str(),
        params.restart_from_bb ? "bb tier" : "pfs",
        restart.decode_gate, restart.scatter_seconds);
    if (observe) {
      obs::SelfProfiler::ScopedPhase ph2(prof_ptr, "proxy.pfs_replay");
      obs_fs.run(restart.requests, probe);
    }
  }

  // burst view of the request stream (compute_time spacing)
  if (params.compute_time > 0) {
    pfs::SimFsConfig cfg;
    pfs::SimFs fs(cfg);
    const auto burst = pfs::burst_stats(fs.run(stats.requests));
    std::printf("burstiness on the reference PFS model: duty cycle %.1f%%, "
                "peak %.2f GB/s\n",
                100 * burst.duty_cycle, burst.peak_bandwidth / 1e9);
  }

  if (observe) {
    // The streaming sampled path never holds every span, but it aggregates
    // all of them (kept or dropped) into per-stage envelope spans — enough
    // for an approximate critical path and explain report. Snapshot them
    // before finish() closes the stream.
    std::vector<obs::Span> envelopes;
    if (sampling) envelopes = stream->envelope_spans();
    if (sampling) {
      if (no_approx_cp) {
        std::fprintf(stderr,
                     "macsio_proxy: critical path under --trace_sample uses "
                     "the per-stage envelope approximation; drop "
                     "--no_approx_critical_path to accept it, or drop "
                     "--trace_sample for the exact span-level path\n");
        return 3;
      }
      const obs::CriticalPathReport cp = obs::critical_path(envelopes, {});
      std::printf("critical path (approximate: per-stage envelopes over all "
                  "%d ranks) over %.4gs of virtual time: %s\n",
                  params.nprocs, cp.makespan, obs::summarize(cp).c_str());
    } else {
      const obs::CriticalPathReport cp =
          obs::critical_path(tracer.spans(), tracer.edges());
      std::printf("critical path over %.4gs of virtual time: %s\n",
                  cp.makespan, obs::summarize(cp).c_str());
    }
    if (!trace_out.empty()) {
      if (sampling) {
        stream->finish();
        std::printf("trace: %s (sampled %d of %d ranks: kept %llu of %llu "
                    "spans, peak %zu buffered)\n",
                    trace_out.c_str(), trace_sample, params.nprocs,
                    static_cast<unsigned long long>(stream->spans_kept()),
                    static_cast<unsigned long long>(stream->spans_recorded()),
                    stream->peak_buffered_spans());
      } else {
        obs::export_trace(trace_out, tracer);
        std::printf("trace: %s\n", trace_out.c_str());
      }
    }
    if (!metrics_out.empty()) {
      obs::export_metrics(metrics_out, metrics.snapshot());
      std::printf("metrics: %s\n", metrics_out.c_str());
    }
    if (!util_out.empty()) {
      const obs::UtilizationReport rep = ledger.report();
      std::printf("%s", obs::utilization_table(rep).c_str());
      std::printf("bottlenecks: %s\n", rep.top_summary().c_str());
      obs::export_utilization(util_out, rep);
      std::printf("utilization: %s\n", util_out.c_str());
    }
    if (want_explain) {
      // Relief scenarios are computed against the same rates the replay
      // used, so "2x ost" in the report means doubling obs_cfg's knob.
      obs::ReliefKnobs knobs;
      knobs.ost_bandwidth = obs_cfg.ost_bandwidth;
      knobs.client_bandwidth = obs_cfg.client_bandwidth;
      knobs.drain_bandwidth = obs_cfg.bb.drain_bandwidth;
      const obs::ExplainReport rep =
          sampling ? obs::explain(envelopes, {}, ledger.report(), knobs)
                   : obs::explain(tracer.spans(), tracer.edges(),
                                  ledger.report(), knobs);
      if (sampling)
        std::printf("explain (approximate: per-stage envelopes — span-level "
                    "slack and service tags need an unsampled trace):\n");
      std::printf("%s", obs::explain_table(rep).c_str());
      if (!explain_out.empty()) {
        obs::export_explain(explain_out, rep);
        std::printf("explain: %s\n", explain_out.c_str());
      }
    }
  }
  if (prof_ptr != nullptr) {
    obs::export_selfprof(prof_out, prof.snapshot());
    std::printf("self-profile: %s\n", prof_out.c_str());
  }
  return 0;
}
