/// Property-based sweeps over randomized inputs (seeded, deterministic):
///  * predict_plotfile == write_plotfile over random hierarchies;
///  * SPMD writer == serial writer over rank counts;
///  * scanner ⟷ trace agreement;
///  * Berger–Rigoutsos coverage/disjointness over random tag fields;
///  * MACSio sizing identities over random parameter draws;
///  * SimFs conservation & monotonicity properties.

#include <gtest/gtest.h>

#include <cmath>

#include "amr/cluster.hpp"
#include "exec/engine.hpp"
#include "iostats/aggregate.hpp"
#include "macsio/driver.hpp"
#include "model/calibrate.hpp"
#include "pfs/simfs.hpp"
#include "plotfile/scanner.hpp"
#include "plotfile/writer.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace pf = amrio::plotfile;
namespace p = amrio::pfs;
namespace m = amrio::mesh;

namespace {

/// Random multi-level hierarchy (valid: disjoint per level, nested domains).
struct RandomHierarchy {
  std::vector<m::MultiFab> storage;
  std::vector<pf::LevelPlotData> levels;
  std::vector<pf::LevelLayout> layouts;
  int ncomp;

  RandomHierarchy(std::uint64_t seed, int nranks) {
    amrio::util::Xoshiro256 rng(seed);
    ncomp = 1 + static_cast<int>(rng.uniform_int(7));
    const int n0 = 32 << rng.uniform_int(2);  // 32 or 64
    m::Box domain(0, 0, n0 - 1, n0 - 1);
    const int nlevels = 1 + static_cast<int>(rng.uniform_int(3));
    m::Geometry geom(domain, {0.0, 0.0}, {1.0, 1.0});
    for (int l = 0; l < nlevels; ++l) {
      m::BoxArray ba;
      if (l == 0) {
        ba = m::BoxArray(domain).max_size(
            8 << rng.uniform_int(2), 4);
      } else {
        // random sub-rectangle of the domain, refined and chopped
        const int w = 4 + static_cast<int>(rng.uniform_int(n0 / 2));
        const int h = 4 + static_cast<int>(rng.uniform_int(n0 / 2));
        const int x = static_cast<int>(rng.uniform_int(n0 - w));
        const int y = static_cast<int>(rng.uniform_int(n0 - h));
        ba = m::BoxArray(m::Box(x, y, x + w - 1, y + h - 1).refine(1 << l))
                 .max_size(16, 4);
      }
      auto dm = m::DistributionMapping::make(
          ba, nranks,
          l % 2 == 0 ? m::DistributionStrategy::kSfc
                     : m::DistributionStrategy::kKnapsack);
      const m::Geometry lgeom(domain.refine(1 << l), {0.0, 0.0}, {1.0, 1.0});
      storage.emplace_back(ba, dm, ncomp, 0);
      auto& mf = storage.back();
      for (std::size_t b = 0; b < mf.nfabs(); ++b)
        for (auto& v : mf.fab(b).data()) v = rng.uniform(-10.0, 10.0);
      layouts.push_back({lgeom, ba, dm});
    }
    for (std::size_t l = 0; l < storage.size(); ++l)
      levels.push_back({layouts[l].geom, &storage[l]});
  }

  pf::PlotfileSpec spec(std::int64_t step) const {
    pf::PlotfileSpec s;
    s.dir = "prop_plt" + amrio::util::zero_pad(static_cast<std::uint64_t>(step), 5);
    for (int c = 0; c < ncomp; ++c) s.var_names.push_back("v" + std::to_string(c));
    s.step = step;
    s.time = 0.5;
    s.job_info = "property test\n";
    return s;
  }
};

}  // namespace

class HierarchyProperty : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyProperty, PredictEqualsWrite) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (int nranks : {1, 3, 8}) {
    RandomHierarchy h(seed * 31 + nranks, nranks);
    p::MemoryBackend be(false);
    const auto actual = pf::write_plotfile(be, h.spec(0), h.levels);
    const auto predicted = pf::predict_plotfile(h.spec(0), h.layouts, h.ncomp);
    EXPECT_EQ(predicted.total_bytes, actual.total_bytes) << "seed " << seed;
    EXPECT_EQ(predicted.rank_level_bytes, actual.rank_level_bytes);
    EXPECT_EQ(predicted.nfiles, actual.nfiles);
    EXPECT_EQ(actual.total_bytes, be.total_bytes());
  }
}

TEST_P(HierarchyProperty, SpmdWriterMatchesEventEngine) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const int nranks = 4;
  RandomHierarchy h(seed * 97 + 7, nranks);

  // The convenience overload runs on the event engine.
  p::MemoryBackend event_be(true);
  const auto event = pf::write_plotfile(event_be, h.spec(0), h.levels);

  p::MemoryBackend spmd_be(true);
  amrio::exec::SpmdEngine engine(nranks);
  const auto spmd = pf::write_plotfile(engine, spmd_be, h.spec(0), h.levels);
  EXPECT_EQ(spmd.total_bytes, event.total_bytes);
  EXPECT_EQ(spmd.rank_level_bytes, event.rank_level_bytes);
  ASSERT_EQ(spmd_be.list(""), event_be.list(""));
  for (const auto& path : event_be.list(""))
    EXPECT_EQ(spmd_be.read(path), event_be.read(path)) << path;
}

TEST_P(HierarchyProperty, ScannerMatchesTrace) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  RandomHierarchy h(seed * 13 + 1, 4);
  p::MemoryBackend be(false);
  amrio::iostats::TraceRecorder trace;
  pf::write_plotfile(be, h.spec(20), h.levels, &trace);
  const auto scanned = pf::scan_plotfiles(be, "prop_plt").table;
  const auto traced = amrio::iostats::aggregate(trace.events());
  EXPECT_EQ(scanned, traced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyProperty,
                         ::testing::Range(1, 9));

// --------------------------------------------------------------- clustering

class ClusterProperty : public ::testing::TestWithParam<int> {};

TEST_P(ClusterProperty, GridsCoverTagsDisjointlyAndNest) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 1234567);
  const m::Box domain(0, 0, 127, 127);
  const m::BoxArray parents =
      m::BoxArray(domain).max_size(32, 8);
  amrio::amr::ClusterParams params;
  params.blocking_factor = 8;
  params.max_grid_size = 32;
  params.error_buf = static_cast<int>(rng.uniform_int(3));

  // random blobs + streaks of tags
  std::vector<m::IntVect> tags;
  const int nblobs = 1 + static_cast<int>(rng.uniform_int(5));
  for (int b = 0; b < nblobs; ++b) {
    const int cx = static_cast<int>(rng.uniform_int(128));
    const int cy = static_cast<int>(rng.uniform_int(128));
    const int r = 1 + static_cast<int>(rng.uniform_int(10));
    for (int j = -r; j <= r; ++j)
      for (int i = -r; i <= r; ++i) {
        if (i * i + j * j > r * r) continue;
        const m::IntVect t{cx + i, cy + j};
        if (domain.contains(t)) tags.push_back(t);
      }
  }
  std::sort(tags.begin(), tags.end());
  tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
  if (tags.empty()) return;

  const auto fine =
      amrio::amr::make_fine_grids(tags, domain, parents, params);
  ASSERT_FALSE(fine.empty());
  EXPECT_TRUE(fine.is_disjoint());
  const m::Box fine_domain = domain.refine(params.ref_ratio);
  for (const auto& b : fine.boxes()) {
    EXPECT_TRUE(fine_domain.contains(b));
    EXPECT_LE(b.length(0), params.max_grid_size);
    EXPECT_LE(b.length(1), params.max_grid_size);
  }
  for (const auto& t : tags)
    EXPECT_TRUE(fine.covers(m::Box(t, t).refine(params.ref_ratio)))
        << "tag " << t.x << "," << t.y;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterProperty, ::testing::Range(1, 13));

// ------------------------------------------------------------------ macsio

class MacsioProperty : public ::testing::TestWithParam<int> {};

TEST_P(MacsioProperty, SizingIdentities) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 999);
  amrio::macsio::Params params;
  params.interface = static_cast<amrio::macsio::Interface>(rng.uniform_int(3));
  params.nprocs = 1 + static_cast<int>(rng.uniform_int(12));
  params.num_dumps = 1 + static_cast<int>(rng.uniform_int(6));
  params.part_size = 64 + rng.uniform_int(200000);
  params.avg_num_parts = 1.0 + rng.uniform() * 2.0;
  params.vars_per_part = 1 + static_cast<int>(rng.uniform_int(4));
  params.dataset_growth = 1.0 + rng.uniform() * 0.2;
  params.meta_size = rng.uniform_int(4096);
  params.validate();

  // identity 1: closed-form per-dump bytes == actual driver bytes
  const auto predicted = amrio::model::macsio_per_dump_bytes(params);
  p::MemoryBackend be(false);
  const auto stats = amrio::macsio::run_macsio(params, be);
  ASSERT_EQ(predicted.size(), stats.bytes_per_dump.size());
  for (std::size_t d = 0; d < predicted.size(); ++d)
    EXPECT_DOUBLE_EQ(predicted[d], static_cast<double>(stats.bytes_per_dump[d]));

  // identity 2: per-task bytes sum to the dump total minus root metadata
  for (std::size_t d = 0; d < stats.task_bytes.size(); ++d) {
    std::uint64_t task_total = 0;
    for (auto b : stats.task_bytes[d]) task_total += b;
    EXPECT_LE(task_total, stats.bytes_per_dump[d]);
    EXPECT_GE(task_total, stats.bytes_per_dump[d] - 1024);  // small root doc
  }

  // identity 3: parts_of_rank sums to round(avg * nprocs)
  int total_parts = 0;
  for (int r = 0; r < params.nprocs; ++r) total_parts += params.parts_of_rank(r);
  EXPECT_EQ(total_parts,
            static_cast<int>(std::llround(params.avg_num_parts * params.nprocs)));

  // identity 4: growth monotonicity
  for (int d = 1; d < params.num_dumps; ++d)
    EXPECT_GE(params.part_bytes_at_dump(d), params.part_bytes_at_dump(d - 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MacsioProperty, ::testing::Range(1, 17));

// ------------------------------------------------------------------- simfs

class SimFsProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimFsProperty, PhysicalSanity) {
  amrio::util::Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()) * 777);
  p::SimFsConfig cfg;
  cfg.n_ost = 1 + static_cast<int>(rng.uniform_int(32));
  cfg.stripe_count = 1 + static_cast<int>(rng.uniform_int(
                             static_cast<std::uint64_t>(cfg.n_ost)));
  cfg.ost_bandwidth = 0.5e9 + rng.uniform() * 2e9;
  cfg.client_bandwidth = 0.5e9 + rng.uniform() * 2e9;
  cfg.mds_latency = rng.uniform() * 1e-3;
  cfg.variability_sigma = rng.uniform() * 0.3;
  cfg.seed = rng.next();

  std::vector<p::IoRequest> reqs;
  const int n = 1 + static_cast<int>(rng.uniform_int(50));
  for (int i = 0; i < n; ++i) {
    reqs.push_back({static_cast<int>(rng.uniform_int(8)),
                    rng.uniform() * 5.0, "file_" + std::to_string(i),
                    rng.uniform_int(64 << 20)});
  }
  p::SimFs fs(cfg);
  const auto results = fs.run(reqs);
  ASSERT_EQ(results.size(), reqs.size());

  const double min_bw = std::min(cfg.ost_bandwidth, cfg.client_bandwidth);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    // causality
    EXPECT_GE(r.open_start, reqs[i].submit_time);
    EXPECT_GE(r.open_end, r.open_start);
    EXPECT_GE(r.end, r.open_end);
    // no faster-than-bandwidth transfers (with slack for lognormal noise;
    // mean-corrected noise can shorten individual chunks)
    if (reqs[i].bytes > 0 && cfg.variability_sigma == 0.0) {
      const double min_time = static_cast<double>(reqs[i].bytes) / min_bw;
      EXPECT_GE(r.end - r.open_end, min_time * (1 - 1e-9));
    }
    EXPECT_EQ(r.bytes, reqs[i].bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFsProperty, ::testing::Range(1, 13));
