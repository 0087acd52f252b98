/// Extension: restart-read study. A checkpoint-restart campaign is bracketed
/// by read-back: every rank must recover its task document before the solver
/// resumes. This bench sweeps the two restart shapes the read-side staging
/// subsystem models — **cold PFS** (direct OST fetches at resume time) and
/// **prefetched BB** (extents staged OST→node during the job-startup window,
/// then read node-locally at resume) — across {identity, ebl} codecs and
/// rank counts, and reports the *perceived* read bandwidth: decoded image
/// bytes over the time between solver resume and the last document landing
/// (decode cpu and the reverse-scatter cost included).
///
/// Shape checks (prefetched-BB beats cold-PFS perceived read bandwidth at
/// every swept point; encoded <= raw; ebl pays a decode gate, identity none)
/// make the bench self-verifying.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/critical_path.hpp"
#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

struct Mode {
  const char* name;
  bool prefetch;  // --read_staging bb with prefetch, vs cold PFS reads
};

struct CodecPoint {
  const char* label;
  const char* codec;
  double error_bound;  // ebl only
};

}  // namespace

int main(int argc, char** argv) {
  using namespace amrio;
  const auto ctx = bench::parse_bench_args(
      argc, argv, "ext_restart_study",
      "extension: checkpoint-restart reads through the burst-buffer tier");
  bench::banner("Extension — restart reads (cold PFS vs prefetched BB)",
                "read-side staging: the paper's write pipeline in reverse");

  const std::vector<int> rank_counts =
      ctx.full ? std::vector<int>{16, 64, 128} : std::vector<int>{16, 64};
  constexpr int kAggFactor = 8;
  // The job-startup window between restart submission and solver resume: the
  // prefetcher works through it, a cold restart pays everything after it.
  constexpr double kResumeDelay = 10.0;
  constexpr double kCodecThroughput = 0.25e9;

  const Mode modes[] = {{"cold", false}, {"prefetch", true}};
  const CodecPoint codecs[] = {{"identity", "identity", 0.0},
                               {"ebl@1e-4", "ebl", 1e-4}};

  util::TextTable table({"ranks", "mode", "codec", "raw", "fetched",
                         "decode gate", "read mkspn", "perceived read bw",
                         "critical path"});
  util::CsvWriter csv(bench::csv_path(ctx, "ext_restart_study.csv"));
  csv.header({"ranks", "mode", "codec", "error_bound", "raw_bytes",
              "encoded_bytes", "decode_gate_s", "scatter_s", "read_makespan",
              "perceived_read_bw", "critical_stage", "critical_frac",
              "binding_resource", "predicted_2x_relief"});

  bool ok = true;
  obs::Tracer row_tracer;  // reset per row: one critical path per config
  for (int ranks : rank_counts) {
    for (const CodecPoint& point : codecs) {
      double bw_by_mode[2] = {0.0, 0.0};
      for (std::size_t m = 0; m < 2; ++m) {
        const Mode& mode = modes[m];
        macsio::Params params;
        params.nprocs = ranks;
        params.num_dumps = 3;
        params.part_size = 1 << 23;  // 8 MiB/task: a real restart image
        params.avg_num_parts = 1.0;
        params.dataset_growth = 1.02;
        params.aggregators = ranks / kAggFactor;
        params.codec = point.codec;
        if (point.error_bound > 0) params.codec_error_bound = point.error_bound;
        params.codec_throughput = kCodecThroughput;
        params.restart = true;
        params.restart_from_bb = mode.prefetch;
        params.prefetch_streams = mode.prefetch ? 4 : 0;

        pfs::MemoryBackend backend(false);  // accounting: exact sizes
        const auto engine = ctx.make_engine(params.nprocs);
        row_tracer = obs::Tracer();
        const obs::Probe probe = ctx.probe(row_tracer);
        (void)macsio::run_macsio(*engine, params, backend);
        const auto restart =
            macsio::run_restart(*engine, params, backend, nullptr, probe);

        if (restart.encoded_bytes > restart.raw_bytes) {
          std::printf("MISMATCH: %d ranks %s %s: fetched > raw\n", ranks,
                      mode.name, point.label);
          ok = false;
        }

        // Restart timeline: prefetches go out when the restart is submitted
        // (t = 0); the solver resumes — and reads issue — at kResumeDelay.
        auto requests = restart.requests;
        for (auto& req : requests)
          if (req.op == pfs::kOpRead) req.submit_time = kResumeDelay;
        pfs::SimFsConfig cfg = bench::study_fs_config(ranks, mode.prefetch);
        cfg.bb.prefetch_concurrency = params.prefetch_streams;
        pfs::SimFs fs(cfg);
        const auto results = fs.run(requests, probe);
        const obs::CriticalPathReport cp =
            obs::critical_path(row_tracer.spans(), row_tracer.edges());
        double last_read_end = kResumeDelay;
        for (const auto& res : results)
          if (res.op == pfs::kOpRead)
            last_read_end = std::max(last_read_end, res.end);
        const double read_makespan = last_read_end - kResumeDelay;
        const double resume_to_solver =
            read_makespan + restart.decode_gate + restart.scatter_seconds;
        const double perceived_bw =
            resume_to_solver > 0
                ? static_cast<double>(restart.raw_bytes) / resume_to_solver
                : 0.0;
        bw_by_mode[m] = perceived_bw;

        table.add_row({std::to_string(ranks), mode.name, point.label,
                       util::human_bytes(restart.raw_bytes),
                       util::human_bytes(restart.encoded_bytes),
                       util::format_g(restart.decode_gate, 3) + "s",
                       util::format_g(read_makespan, 4) + "s",
                       util::human_bytes(static_cast<std::uint64_t>(
                           perceived_bw)) + "/s",
                       obs::summarize(cp)});
        csv.field(static_cast<std::int64_t>(ranks))
            .field(std::string(mode.name))
            .field(std::string(point.codec))
            .field(point.error_bound)
            .field(static_cast<std::int64_t>(restart.raw_bytes))
            .field(static_cast<std::int64_t>(restart.encoded_bytes))
            .field(restart.decode_gate)
            .field(restart.scatter_seconds)
            .field(read_makespan)
            .field(perceived_bw)
            .field(cp.critical_stage)
            .field(cp.critical_frac)
            .field(cp.binding_resource)
            .field(bench::predicted_2x_relief(row_tracer, cfg));
        csv.endrow();
        ctx.row_done(row_tracer);

        const bool ebl = std::string(point.codec) == "ebl";
        if (ebl && restart.decode_gate <= 0.0) {
          std::printf("MISMATCH: %d ranks %s: ebl restart has no decode gate\n",
                      ranks, mode.name);
          ok = false;
        }
        if (!ebl && restart.decode_gate != 0.0) {
          std::printf("MISMATCH: %d ranks %s: identity restart pays decode\n",
                      ranks, mode.name);
          ok = false;
        }
      }
      // the crossover this study exists to expose: staging the image into
      // node-local areas during startup beats fetching it cold at resume
      if (bw_by_mode[1] <= bw_by_mode[0]) {
        std::printf(
            "MISMATCH: %d ranks %s: prefetched-BB restart does not beat "
            "cold-PFS (%.3g <= %.3g bytes/s)\n",
            ranks, point.label, bw_by_mode[1], bw_by_mode[0]);
        ok = false;
      }
    }
  }

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nreading: a cold restart pays the full OST fetch after the solver\n"
      "resumes; a prefetched restart hides it in the job-startup window and\n"
      "pays only the node-local read (plus decode under a codec) — the\n"
      "perceived read bandwidth gap is the read-side analogue of the\n"
      "perceived-vs-sustained write gap the burst buffer creates.\n");
  std::printf(
      "shape checks (prefetched > cold everywhere, fetched <= raw, decode "
      "gate): %s\n",
      ok ? "OK" : "MISMATCH");
  std::printf("csv: %s\n", csv.path().c_str());
  bench::export_obs(ctx, row_tracer);
  bench::explain_row(ctx, row_tracer,
                     bench::study_fs_config(rank_counts.back(), true));
  return ok ? 0 : 1;
}
