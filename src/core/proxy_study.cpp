#include "core/proxy_study.hpp"

#include <cmath>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/whatif.hpp"
#include "util/assert.hpp"

namespace amrio::core {

ValidationResult calibrate_and_validate(const RunRecord& run, double growth_lo,
                                        double growth_hi) {
  return calibrate_and_validate(run, StudyOptions{}, growth_lo, growth_hi);
}

ValidationResult calibrate_and_validate(const RunRecord& run,
                                        const StudyOptions& opts,
                                        double growth_lo, double growth_hi) {
  ValidationResult result;
  result.translation =
      model::translate(run.inputs, run.measurements(), growth_lo, growth_hi);
  result.sim_per_step = run.total.per_step;

  // Execute the calibrated proxy for real (as the paper does on Summit) and
  // measure what it writes. The engine choice does not affect the bytes —
  // every engine runs the same driver body — so the calibration replay stays
  // valid under any of them; the event engine is the cheap default at any
  // nprocs.
  macsio::Params params = result.translation.params;
  params.output_dir = "macsio_" + run.config.name;
  params.codec = opts.codec;
  params.codec_error_bound = opts.codec_error_bound;
  params.codec_var_bounds = opts.codec_var_bounds;
  params.codec_throughput = opts.codec_throughput;
  params.codec_decode_throughput = opts.codec_decode_throughput;
  params.restart = opts.restart;
  params.restart_from_bb = opts.restart_from_bb;
  params.validate();
  pfs::MemoryBackend backend(/*store_contents=*/false);
  const auto engine = exec::make_engine(opts.engine, params.nprocs);
  const bool observe = !opts.trace_out.empty() || !opts.metrics_out.empty() ||
                       !opts.explain_out.empty();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const obs::Probe probe =
      observe ? obs::Probe{&tracer, &metrics} : obs::Probe{};
  result.proxy_stats =
      macsio::run_macsio(*engine, params, backend, nullptr, probe);
  for (auto b : result.proxy_stats.bytes_per_dump)
    result.proxy_per_step.push_back(static_cast<double>(b));
  if (opts.restart)
    result.restart_stats =
        macsio::run_restart(*engine, params, backend, nullptr, probe);
  if (!opts.trace_out.empty()) obs::export_trace(opts.trace_out, tracer);
  if (!opts.metrics_out.empty())
    obs::export_metrics(opts.metrics_out, metrics.snapshot());
  if (!opts.explain_out.empty()) {
    // Driver-only replay: no SimFs rates to bound the scenarios, so the
    // effective scales fall back to plain 1/factor (see ReliefKnobs).
    obs::export_explain(opts.explain_out,
                        obs::explain(tracer.spans(), tracer.edges(),
                                     obs::UtilizationReport{},
                                     obs::ReliefKnobs{}));
  }

  AMRIO_EXPECTS(result.proxy_per_step.size() == result.sim_per_step.size());
  double acc = 0.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < result.sim_per_step.size(); ++i) {
    const double rel = std::abs(result.proxy_per_step[i] - result.sim_per_step[i]) /
                       result.sim_per_step[i];
    acc += rel;
    worst = std::max(worst, rel);
  }
  result.mean_abs_rel_err = acc / static_cast<double>(result.sim_per_step.size());
  result.max_abs_rel_err = worst;
  return result;
}

StudySweepResult study_sweep(const macsio::Params& base,
                             const std::vector<StudyOptions>& variants,
                             const campaign::ExecutorOptions& exec_opts) {
  StudySweepResult result;
  result.cells.reserve(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    campaign::CellConfig cell;
    cell.name = "study/" + std::to_string(i) + "/" +
                exec::engine_kind_name(variants[i].engine) + "/" +
                variants[i].codec;
    cell.params = base;
    cell.study = variants[i];
    result.cells.push_back(std::move(cell));
  }
  campaign::CampaignExecutor executor(exec_opts);
  result.outcomes = executor.run(result.cells);
  result.stats = executor.stats();
  return result;
}

}  // namespace amrio::core
