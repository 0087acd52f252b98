#pragma once
/// \file grid.hpp
/// Sweep-grid construction: the cross product {interface × staging mode ×
/// codec point × engine × ranks} expanded into CellConfigs with canonical
/// names. `table3_grid()` is the default campaign — the paper's Table III
/// axes at bench scale, sized so the full product clears 500 cells.

#include <string>
#include <vector>

#include "campaign/cell.hpp"

namespace amrio::campaign {

/// One codec sweep point. `var_bounds` non-empty selects the AMRIC-style
/// per-variable ebl model (comma-separated bounds, e.g. density loose /
/// pressure tight) and supersedes `error_bound`.
struct CodecPoint {
  std::string label;       ///< row label, e.g. "ebl@1e-3" or "ebl@vars"
  std::string codec;       ///< "identity" | "lossless" | "ebl"
  double error_bound = 1.0e-3;
  std::string var_bounds;  ///< per-variable bounds CSV ("" = uniform)
};

/// One staging configuration of the dump path.
struct StagingMode {
  std::string label;  ///< "direct" | "agg" | "bb" | "agg+bb" | "sif" | ...
  macsio::FileMode file_mode = macsio::FileMode::kMif;
  bool aggregate = false;     ///< two-phase aggregation (MIF only)
  bool burst_buffer = false;  ///< stage dumps to the BB tier
};

struct GridSpec {
  std::vector<macsio::Interface> interfaces;
  std::vector<StagingMode> stagings;
  std::vector<CodecPoint> codecs;
  std::vector<exec::EngineKind> engines;
  std::vector<int> rank_counts;

  // per-cell workload shape (shared across the grid)
  int num_dumps = 2;
  std::uint64_t part_size = 1 << 16;
  int vars_per_part = 2;  ///< >= 2 so per-variable bounds have two variables
  double dataset_growth = 1.02;
  double codec_throughput = 0.25e9;
  int agg_factor = 8;  ///< aggregators = ranks / agg_factor (min 1)
};

/// Expand the cross product into cells. Cell names are
/// "<interface>/<staging>/<codec>/<engine>/r<ranks>"; invalid combinations
/// (aggregation under SIF) are skipped by construction because StagingMode
/// carries its own file mode.
std::vector<CellConfig> make_grid(const GridSpec& spec);

/// The default campaign grid: 3 interfaces × 6 staging modes (MIF direct/
/// agg/bb/agg+bb, SIF direct/bb) × 4 codec points (identity, lossless,
/// uniform ebl, per-variable ebl) × 2 engines (serial, event) × 4 rank
/// counts = 576 cells. The engine axis is a label only: "serial"
/// (exec::EngineKind::kSerial) builds an EventEngine like "event" does, so
/// its two halves give identical results; it stays until a change that
/// re-records the campaign benchmark's digest drops it.
GridSpec table3_grid();

}  // namespace amrio::campaign
