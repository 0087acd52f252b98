#pragma once
/// \file study_options.hpp
/// The per-cell execution configuration shared by the proxy study and the
/// campaign layer: every knob that shapes how a calibrated proxy replay is
/// *executed* (engine, codec family, restart path, observability sinks).
/// The campaign cache key canonicalizes every field of this struct — when a
/// knob lands here, `campaign::canonical_key` and its completeness property
/// test must learn about it in the same PR (tests/test_campaign.cpp walks
/// each field and asserts the key moves).

#include <string>

#include "exec/engine.hpp"

namespace amrio::core {

/// Knobs that compose with the calibrated proxy replay — the study-level
/// surface of `--engine`, the `--codec*` family, and `--restart`. The
/// translation itself never depends on these (it prices raw bytes); they
/// shape how the validated proxy is *executed*.
struct StudyOptions {
  /// Execution engine for the proxy replay: the deterministic event engine
  /// by default (any nprocs, calibration scale through machine scale); kSpmd
  /// runs real threads.
  exec::EngineKind engine = exec::EngineKind::kEvent;
  /// Compression model applied to task documents ("identity", "ebl", ...);
  /// forwarded to macsio::Params::codec with the bound/throughput knobs.
  std::string codec = "identity";
  double codec_error_bound = 1.0e-3;
  /// Comma-separated per-variable error bounds for the ebl codec
  /// ("1e-3,1e-5": density loose, pressure tight) — the AMRIC-style sweep
  /// dimension. Non-empty supersedes codec_error_bound; empty = uniform.
  std::string codec_var_bounds;
  double codec_throughput = 0.0;
  double codec_decode_throughput = 0.0;
  /// Read the last dump back after the dump loop (checkpoint-restart) and
  /// record the stats in ValidationResult::restart_stats.
  bool restart = false;
  /// Serve those restart reads through the burst-buffer tier.
  bool restart_from_bb = false;
  /// When non-empty, write a Chrome-trace/Perfetto JSON of the proxy replay's
  /// virtual-time spans (dump/encode/ship, restart/scatter/decode) here —
  /// ranks appear as threads, the driver as tid 0. See docs/OBSERVABILITY.md.
  std::string trace_out;
  /// When non-empty, write the metrics snapshot here (".csv" suffix selects
  /// flat CSV, anything else pretty JSON).
  std::string metrics_out;
  /// When non-empty, write the predictive explain report (per-resource
  /// what-if makespans at 1.5x/2x relief, shadow prices) of the proxy
  /// replay's span DAG here as JSON. The study replays the driver only (no
  /// PFS model), so the codec CPU and aggregation link are the resources
  /// with leverage; rates default to plain 1/factor scaling.
  std::string explain_out;
};

}  // namespace amrio::core
