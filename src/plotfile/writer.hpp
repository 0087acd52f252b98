#pragma once
/// \file writer.hpp
/// AMReX-native plotfile writer reproducing the exact output tree of the
/// paper's Fig. 2:
///
///   <plot_file>NNNNN/
///     Header                 top-level metadata
///     job_info               run metadata
///     Level_0/
///       Cell_H               per-level mesh metadata
///       Cell_D_00000         per-task FAB data (one file per owning rank)
///       Cell_D_00001
///     Level_1/ ...
///
/// A `Cell_D` file is created **only** for ranks that own at least one grid at
/// that level — the conditional the paper calls out ("a file is only produced
/// if there is data generated on a particular task at the corresponding mesh
/// level").
///
/// All real numbers in metadata are emitted in a fixed-width field so the
/// byte-exact `predict_plotfile` (no data touched) matches `write_plotfile`
/// exactly; the prediction path powers the paper-scale Fig. 11 reproduction.

#include <cstdint>
#include <string>
#include <vector>

#include "codec/stats.hpp"
#include "exec/engine.hpp"
#include "iostats/trace.hpp"
#include "mesh/distribution.hpp"
#include "mesh/geometry.hpp"
#include "mesh/multifab.hpp"
#include "pfs/backend.hpp"

namespace amrio::plotfile {

/// One level's data to plot (valid regions of `data` are written).
struct LevelPlotData {
  mesh::Geometry geom;
  const mesh::MultiFab* data = nullptr;
};

/// One level's *layout* (no data) for size prediction.
struct LevelLayout {
  mesh::Geometry geom;
  mesh::BoxArray ba;
  mesh::DistributionMapping dm;
};

struct PlotfileSpec {
  std::string dir;  ///< e.g. "sedov_2d_cyl_in_cart_plt00020"
  std::vector<std::string> var_names;
  double time = 0.0;
  std::int64_t step = 0;
  int ref_ratio = 2;
  std::string job_info;  ///< free text stored in the job_info file
  /// Aggregated MIF: partition each level's ranks into this many groups
  /// (staging::AggTopology); members ship their FAB payloads to the group's
  /// aggregator, which writes one `Cell_D_<group>` file holding the group's
  /// fabs in rank order (offsets in Cell_H point into it). 0 = classic
  /// one-file-per-owning-rank. Levels with fewer ranks than groups fall back
  /// to one group per rank. `predict_plotfile` honors the same setting.
  int aggregators = 0;
  /// Per-Cell_D codec hook: each rank's Cell_D chunk passes through this
  /// codec before it leaves the node — encoded bytes cross the aggregation
  /// link and fill `WriteStats::codec` / trace codec dimensions, while file
  /// contents stay raw (reader-compatible; the modeled PFS stores the
  /// decoded image). With `codec.smoothness < 0` (auto) the ebl model
  /// estimates smoothness from the rank's real FAB data; pin the smoothness
  /// for byte-exact codec parity with `predict_plotfile` (identity and
  /// lossless are always parity-exact, being pure size functions).
  codec::CodecSpec codec;
};

struct WriteStats {
  std::uint64_t total_bytes = 0;
  std::uint64_t metadata_bytes = 0;  ///< Header + job_info + Cell_H files
  std::uint64_t data_bytes = 0;      ///< Cell_D files
  std::uint64_t nfiles = 0;
  /// bytes per [level][rank] of Cell_D data (size nlevels × nranks).
  std::vector<std::vector<std::uint64_t>> rank_level_bytes;
  /// Codec accounting (one chunk per rank per level with data, keyed by
  /// spec.step / level; metadata is never compressed). Identity: encoded ==
  /// raw, zero cpu. Populated on rank 0.
  codec::CodecStats codec;
};

/// Write a multi-level plotfile (the WriteMultiLevelPlotfile path the paper
/// identifies in Castro) on an execution engine: each rank writes its own
/// `Cell_D` files (concurrently under `exec::SpmdEngine`, as virtual ranks
/// under `exec::EventEngine`), per-rank byte counts are gathered to rank 0, which
/// writes all metadata. One write body serves every execution mode, so the
/// engines are byte-identical by construction. Events are recorded into
/// `trace` when given, keyed by (spec.step, level, rank); metadata uses
/// level/rank = -1.
WriteStats write_plotfile(exec::Engine& engine, pfs::StorageBackend& backend,
                          const PlotfileSpec& spec,
                          const std::vector<LevelPlotData>& levels,
                          iostats::TraceRecorder* trace = nullptr);

/// Convenience: write on an EventEngine sized to the widest level
/// distribution.
WriteStats write_plotfile(pfs::StorageBackend& backend, const PlotfileSpec& spec,
                          const std::vector<LevelPlotData>& levels,
                          iostats::TraceRecorder* trace = nullptr);

/// Byte-exact size prediction of write_plotfile for the same spec/layouts —
/// no field data is read or written, so it runs at paper scale (8192² and
/// beyond) in microseconds. When `trace` is given the same events are
/// recorded as a real write would produce.
WriteStats predict_plotfile(const PlotfileSpec& spec,
                            const std::vector<LevelLayout>& levels, int ncomp,
                            iostats::TraceRecorder* trace = nullptr);

/// Checkpoint variant (amr.check_file / amr.check_int): same N-to-N tree with
/// a checkpoint Header carrying restart state description.
WriteStats write_checkpoint(pfs::StorageBackend& backend,
                            const PlotfileSpec& spec,
                            const std::vector<LevelPlotData>& levels,
                            iostats::TraceRecorder* trace = nullptr);

/// Fixed-width (26 char) scientific rendering used for all reals in metadata.
std::string fixed_real(double v);

}  // namespace amrio::plotfile
