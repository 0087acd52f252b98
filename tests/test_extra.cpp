/// Corner-case batch: behaviours not covered by the per-module suites —
/// pretty JSON, OutFile move semantics, checkpoint read-back, SPMD writer
/// with rank gaps, SFC locality, timeline overlap accounting, growth-guess
/// trends, and Eq. (1) metadata bookkeeping.

#include <gtest/gtest.h>

#include <sstream>

#include "exec/engine.hpp"
#include "iostats/aggregate.hpp"
#include "mesh/distribution.hpp"
#include "mesh/morton.hpp"
#include "model/translate.hpp"
#include "pfs/timeline.hpp"
#include "plotfile/reader.hpp"
#include "plotfile/writer.hpp"
#include "simmpi/comm.hpp"
#include "util/format.hpp"
#include "util/json.hpp"

namespace m = amrio::mesh;
namespace p = amrio::pfs;
namespace pf = amrio::plotfile;

TEST(JsonPretty, IndentsNestedStructures) {
  std::ostringstream os;
  amrio::util::JsonWriter w(os, /*pretty=*/true);
  w.begin_object();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.end_object();
  const std::string out = os.str();
  EXPECT_NE(out.find("\n  \"list\""), std::string::npos);
  EXPECT_NE(out.find("\n    1"), std::string::npos);
  EXPECT_EQ(out.back(), '}');
}

TEST(OutFile, MoveTransfersOwnership) {
  p::MemoryBackend be(true);
  {
    p::OutFile a(be, "f");
    a.write("xy");
    p::OutFile b(std::move(a));
    b.write("z");
    // destruction of both closes exactly once (no double close throw)
  }
  EXPECT_EQ(be.size("f"), 3u);
}

TEST(OutFile, ExplicitCloseIsIdempotent) {
  p::MemoryBackend be(true);
  p::OutFile f(be, "g");
  f.write("a");
  f.close();
  f.close();  // no-op
  EXPECT_EQ(be.size("g"), 1u);
}

TEST(Checkpoint, ReadsBackThroughPlotfileReader) {
  p::MemoryBackend be(true);
  m::BoxArray ba(m::Box(0, 0, 15, 15));
  auto dm = m::DistributionMapping::make(ba, 1, m::DistributionStrategy::kSfc);
  m::MultiFab state(ba, dm, 4, 0);
  state.set_val(3.5);
  const m::Geometry geom(m::Box(0, 0, 15, 15), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "chk00007";
  spec.var_names = {"density", "xmom", "ymom", "rho_E"};
  spec.step = 7;
  pf::write_checkpoint(be, spec, {{geom, &state}});
  const auto back = pf::read_plotfile(be, "chk00007");
  EXPECT_EQ(back.var_names.size(), 4u);
  ASSERT_EQ(back.levels.size(), 1u);
  EXPECT_DOUBLE_EQ(back.levels[0].fabs[0]({4, 4}, 0), 3.5);
}

TEST(SpmdWriter, RanksWithoutBoxesWriteNothing) {
  // 1 box over 4 ranks: ranks 1..3 own nothing at that level
  m::BoxArray ba(m::Box(0, 0, 7, 7));
  auto dm = m::DistributionMapping::make(ba, 4, m::DistributionStrategy::kSfc);
  m::MultiFab mf(ba, dm, 1, 0);
  const m::Geometry geom(m::Box(0, 0, 7, 7), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "gap_plt00000";
  spec.var_names = {"v"};
  p::MemoryBackend be(false);
  amrio::exec::SpmdEngine engine(4);
  pf::write_plotfile(engine, be, spec, {{geom, &mf}});
  int cell_d_files = 0;
  for (const auto& path : be.list("gap_plt00000/Level_0"))
    if (path.find("Cell_D_") != std::string::npos) ++cell_d_files;
  EXPECT_EQ(cell_d_files, 1);
}

TEST(Sfc, MortonOrderingIsSpatiallyLocal) {
  // boxes laid along a Z-curve get contiguous rank assignments: neighbors in
  // curve order mostly share ranks (locality the SFC strategy is for)
  std::vector<m::Box> boxes;
  for (int j = 0; j < 8; ++j)
    for (int i = 0; i < 8; ++i)
      boxes.emplace_back(i * 8, j * 8, i * 8 + 7, j * 8 + 7);
  m::BoxArray ba(boxes);
  const auto dm =
      m::DistributionMapping::make(ba, 8, m::DistributionStrategy::kSfc);
  // each rank owns a contiguous chunk of equal weight: exactly 8 boxes each
  for (int r = 0; r < 8; ++r)
    EXPECT_EQ(dm.boxes_of(r).size(), 8u) << "rank " << r;
}

TEST(Timeline, OverlappingRequestsSumInBins) {
  std::vector<p::IoResult> results(2);
  results[0].open_start = results[0].open_end = 0.0;
  results[0].end = 2.0;
  results[0].bytes = 200;
  results[1].open_start = results[1].open_end = 1.0;
  results[1].end = 2.0;
  results[1].bytes = 100;
  const auto bins = p::bandwidth_timeline(results, 2);  // [0,1) and [1,2)
  EXPECT_NEAR(bins[0].bytes, 100.0, 1e-6);        // first request only
  EXPECT_NEAR(bins[1].bytes, 200.0, 1e-6);        // both overlap here
  EXPECT_NEAR(bins[1].bandwidth(), 200.0, 1e-6);  // per 1s window
}

TEST(GrowthGuess, TrendSurvivesInterpolation) {
  amrio::model::GrowthGuess g;
  // strictly increasing surface in both axes
  for (double cfl : {0.3, 0.6})
    for (int lev : {2, 4})
      g.add(cfl, lev, 1.0 + 0.05 * cfl + 0.01 * lev);
  // midpoints preserve the ordering
  EXPECT_LT(g.interpolate(0.35, 2), g.interpolate(0.55, 2));
  EXPECT_LT(g.interpolate(0.45, 2), g.interpolate(0.45, 4));
}

TEST(Aggregate, MetadataRowsCountedInTotalsNotLevels) {
  amrio::iostats::SizeTable table;
  table[{0, -1, -1}] = 100;  // Header/job_info
  table[{0, 0, -1}] = 10;    // Cell_H
  table[{0, 0, 0}] = 1000;   // data
  EXPECT_EQ(amrio::iostats::step_bytes(table, 0), 1110u);
  EXPECT_EQ(amrio::iostats::step_level_bytes(table, 0, 0), 1010u);
  EXPECT_EQ(amrio::iostats::step_level_bytes(table, 0, -1), 100u);
  // level series for L0 includes Cell_H but not the top-level metadata
  const auto l0 = amrio::iostats::cumulative_series_level(table, 64, 0);
  EXPECT_DOUBLE_EQ(l0.per_step[0], 1010.0);
}

TEST(Format, FormatGPrecision) {
  EXPECT_EQ(amrio::util::format_g(1.0, 6), "1");
  EXPECT_EQ(amrio::util::format_g(0.125, 6), "0.125");
  EXPECT_EQ(amrio::util::format_g(1234567.0, 3), "1.23e+06");
}

TEST(Morton, CurveVisitsQuadrantsInOrder) {
  // all codes in the lower-left 2x2 quadrant precede the upper-right 2x2
  std::uint64_t max_ll = 0;
  std::uint64_t min_ur = ~0ull;
  for (std::uint32_t j = 0; j < 2; ++j)
    for (std::uint32_t i = 0; i < 2; ++i) {
      max_ll = std::max(max_ll, m::morton_encode(i, j));
      min_ur = std::min(min_ur, m::morton_encode(i + 2, j + 2));
    }
  EXPECT_LT(max_ll, min_ur);
}

TEST(Comm, BcastLargePayload) {
  amrio::simmpi::run_spmd(3, [](amrio::simmpi::Comm& comm) {
    std::vector<double> data(10000, comm.rank() == 1 ? 3.25 : 0.0);
    comm.bcast(std::span<double>(data), 1);
    EXPECT_DOUBLE_EQ(data.front(), 3.25);
    EXPECT_DOUBLE_EQ(data.back(), 3.25);
  });
}

TEST(Geometry, RefineChainsCompose) {
  const m::Geometry g0(m::Box(0, 0, 31, 31), {0.0, 0.0}, {2.0, 2.0});
  const auto g2 = g0.refine(2).refine(2);
  EXPECT_DOUBLE_EQ(g2.cell_size(0), g0.cell_size(0) / 4);
  EXPECT_EQ(g2.domain(), g0.domain().refine(4));
  // physical center of a refined cell stays inside the original cell
  const auto c = g2.cell_center({0, 0});
  EXPECT_LT(c[0], g0.cell_size(0));
}
