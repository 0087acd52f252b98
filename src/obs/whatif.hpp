#pragma once
/// \file whatif.hpp
/// Per-resource what-if engine: replays a recorded span DAG with the
/// service (and queued-wait) seconds of spans tagged to one resource group
/// scaled, and reports the predicted makespan — "what would this run cost
/// if the OSTs / BB drain / agg link / codec were f-times faster?" without
/// re-simulating. On top of the replay, `explain()` builds the full
/// `--explain` report: per resource group, its utilization (from the
/// `ResourceLedger`), its slack-weighted exposure, the predicted makespan
/// at 1.5x and 2x relief, and the shadow price — marginal seconds of
/// makespan per unit of capacity added.
///
/// Replay model (dependency structure from slack.hpp's `SpanDag`): each
/// span keeps `fixed = dur - wait - service` unchanged, scales `service`
/// by the scenario's service scale when its serving pool (`Span::res`)
/// matches the group, and scales `wait` by the wait scale when its wait
/// resource (`Span::resource`) matches — queued time behind a pool shrinks
/// with the pool's service times (FIFO waits are sums of other requests'
/// service). Span releases follow the DAG: edge-released spans start at
/// their predecessors' new ends (recorded overlaps preserved, recorded
/// gaps compressible), program-order-released spans keep their recorded
/// release offset, anchored spans keep their recorded start.
///
/// Accuracy contract: for single-resource 2x reliefs on the pinned 32-rank
/// {direct, agg, bb} x {identity, ebl} grid, the prediction lands within
/// 5% of an actual re-simulation with that knob changed (asserted by
/// tests/test_obs.cpp on the event and spmd engines). Known caveats are
/// documented in docs/OBSERVABILITY.md.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/ledger.hpp"
#include "obs/slack.hpp"
#include "obs/span.hpp"

namespace amrio::obs {

/// One relief scenario: a resource group, the capacity factor the report
/// quotes, and the *effective* service/wait multipliers the replay applies.
/// The scales are caller-computed because only the caller knows which rate
/// actually binds (e.g. doubling `ost_bandwidth` under a slower client NIC
/// changes nothing) — `standard_scenarios` encodes the SimFs/staging/codec
/// formulas.
struct Scenario {
  std::string resource;        ///< "ost", "bb_drain", "agg_link", "codec_cpu"
  double factor = 1.0;         ///< capacity relief (1.5, 2.0, ...)
  double service_scale = 1.0;  ///< multiplier for matched Span::service
  double wait_scale = 1.0;     ///< multiplier for matched Span::wait
};

/// True when `res` (a `Span::res` / `ResourceLedger` pool id) is served by
/// `group` ("ost" matches "ost[3]", "bb_drain" matches "bb[0].drain", ...).
bool group_serves(const std::string& group, const std::string& res);

/// True when a span waiting on `resource` (Span::resource) is queued behind
/// the pools of `group` ("ost" <- "ost_queue", "bb_drain" <- "drain_stream").
bool group_queues(const std::string& group, const std::string& resource);

/// The configured rates the effective scales depend on. Zeros fall back to
/// a plain 1/factor scale for that group.
struct ReliefKnobs {
  double ost_bandwidth = 0.0;
  double client_bandwidth = 0.0;
  double drain_bandwidth = 0.0;  ///< BB->OST drain stream bandwidth
};

/// The four standard single-resource scenarios at one relief factor, with
/// effective scales: ost -> min(client, ost) / min(client, f*ost);
/// bb_drain -> min(drain, ost) / min(f*drain, ost); agg_link and codec_cpu
/// -> 1/f (their modeled costs are exactly bandwidth- / throughput-
/// proportional).
std::vector<Scenario> standard_scenarios(double factor,
                                         const ReliefKnobs& knobs);

struct WhatIfResult {
  Scenario scenario;
  double baseline_makespan = 0.0;   ///< max recorded span end
  double predicted_makespan = 0.0;  ///< max replayed span end
};

/// Replay the DAG under one scenario. The `dag` overload amortizes the
/// dependency build across scenarios.
WhatIfResult what_if(const std::vector<Span>& spans,
                     const std::vector<SpanEdge>& edges, const Scenario& sc);
WhatIfResult what_if(const std::vector<Span>& spans, const SpanDag& dag,
                     const Scenario& sc);

/// One row of the `--explain` report, per resource group.
struct ResourceOutlook {
  std::string resource;        ///< group name
  double utilization = 0.0;    ///< max busy_frac over the group's pools
  double exposure = 0.0;       ///< slack-weighted busy+wait seconds
  double predicted_15 = 0.0;   ///< predicted makespan at 1.5x relief
  double predicted_20 = 0.0;   ///< predicted makespan at 2x relief
  double shadow_price = 0.0;   ///< (baseline - predicted_20) seconds per +1x
};

struct ExplainReport {
  double makespan = 0.0;          ///< baseline (max span end)
  std::string critical_stage;     ///< from critical_path
  double critical_frac = 0.0;
  std::string binding_resource;   ///< from critical_path
  /// Ranked by shadow_price descending (ties by name) — the head row is
  /// the capacity to buy first.
  std::vector<ResourceOutlook> resources;
};

/// Full predictive report: critical-path attribution + slack exposure +
/// the four standard what-ifs at 1.5x/2x. `util` supplies per-pool
/// utilization (pass a default-constructed report if no ledger ran).
ExplainReport explain(const std::vector<Span>& spans,
                      const std::vector<SpanEdge>& edges,
                      const UtilizationReport& util,
                      const ReliefKnobs& knobs);

/// Printable ranked table.
std::string explain_table(const ExplainReport& rep);

/// JSON with `schema_version` and pinned key order (byte-stable given the
/// same report).
void write_explain_json(std::ostream& os, const ExplainReport& rep);
void export_explain(const std::string& path, const ExplainReport& rep);

}  // namespace amrio::obs
