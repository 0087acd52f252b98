/// Tests for the sharded campaign layer: executor determinism (--jobs 1 and
/// --jobs 8 produce byte-identical canonical CSV rows on both the event and
/// spmd engines), cache-key completeness (every macsio::Params and
/// core::StudyOptions field moves the key — the property that makes cache
/// hits safe to serve), in-flight dedup of duplicate configurations, JSON
/// cache persistence across processes (cold run executes everything, warm
/// run resolves entirely from the cache, rows byte-identical), the predict
/// service's calibration (fit on a coarse rank grid, pin a held-out rank
/// count within a stated tolerance; analytic encoded-bytes prediction is
/// exact), and the per-variable codec error-bound sweep dimension.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/cell.hpp"
#include "campaign/executor.hpp"
#include "campaign/grid.hpp"
#include "campaign/predict.hpp"
#include "campaign/report.hpp"
#include "codec/codec.hpp"
#include "core/proxy_study.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"

namespace cg = amrio::campaign;
namespace cd = amrio::codec;
namespace co = amrio::core;
namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace ut = amrio::util;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// A small but representative grid: 2 interfaces x 3 staging modes x
/// 2 codecs x 2 rank counts = 24 cells on one engine.
cg::GridSpec small_grid(ex::EngineKind engine) {
  cg::GridSpec spec;
  spec.interfaces = {mc::Interface::kMiftmpl, mc::Interface::kRaw};
  spec.stagings = {
      {"direct", mc::FileMode::kMif, false, false},
      {"agg", mc::FileMode::kMif, true, false},
      {"bb", mc::FileMode::kMif, false, true},
  };
  spec.codecs = {
      {"identity", "identity", 0.0, ""},
      {"ebl@1e-3", "ebl", 1.0e-3, ""},
  };
  spec.engines = {engine};
  spec.rank_counts = {4, 8};
  return spec;
}

void expect_results_equal(const cg::CellResult& a, const cg::CellResult& b) {
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.nfiles, b.nfiles);
  EXPECT_EQ(a.encode_seconds, b.encode_seconds);
  EXPECT_EQ(a.dump_seconds, b.dump_seconds);
  EXPECT_EQ(a.sustained_seconds, b.sustained_seconds);
  EXPECT_EQ(a.perceived_bandwidth, b.perceived_bandwidth);
  EXPECT_EQ(a.sustained_bandwidth, b.sustained_bandwidth);
  EXPECT_EQ(a.critical_stage, b.critical_stage);
  EXPECT_EQ(a.critical_frac, b.critical_frac);
  EXPECT_EQ(a.binding_resource, b.binding_resource);
  EXPECT_EQ(a.restart_seconds, b.restart_seconds);
  EXPECT_EQ(a.restart_decode_gate, b.restart_decode_gate);
}

}  // namespace

// ------------------------------------------------- executor determinism

// The determinism contract the artifact diffs lean on: the canonical CSV
// rows are byte-identical whether the campaign ran inline (--jobs 1) or
// across a stealing pool (--jobs 8), on either engine.
TEST(CampaignDeterminism, Jobs1VsJobs8ByteIdenticalRows) {
  for (const ex::EngineKind engine :
       {ex::EngineKind::kEvent, ex::EngineKind::kSpmd}) {
    const std::vector<cg::CellConfig> cells =
        cg::make_grid(small_grid(engine));
    ASSERT_EQ(cells.size(), 24u);

    cg::CampaignExecutor seq({/*jobs=*/1, /*cache_path=*/""});
    const auto out1 = seq.run(cells);
    cg::CampaignExecutor par({/*jobs=*/8, /*cache_path=*/""});
    const auto out8 = par.run(cells);

    EXPECT_EQ(seq.stats().cells, par.stats().cells);
    EXPECT_EQ(seq.stats().executed, par.stats().executed);
    EXPECT_EQ(seq.stats().cache_hits, par.stats().cache_hits);
    // steals is the one scheduling-dependent stat; deliberately not compared.

    const auto rows1 = cg::csv_rows(cells, out1);
    const auto rows8 = cg::csv_rows(cells, out8);
    EXPECT_EQ(rows1, rows8) << "engine " << ex::engine_kind_name(engine);
    for (std::size_t i = 0; i < out1.size(); ++i)
      expect_results_equal(out1[i].result, out8[i].result);
  }
}

// Event and spmd engines are stats-identical by construction; campaign
// cells differing only in the engine must carry identical result columns.
TEST(CampaignDeterminism, EnginesProduceIdenticalResults) {
  const auto event_cells = cg::make_grid(small_grid(ex::EngineKind::kEvent));
  const auto spmd_cells = cg::make_grid(small_grid(ex::EngineKind::kSpmd));
  ASSERT_EQ(event_cells.size(), spmd_cells.size());
  cg::CampaignExecutor executor({/*jobs=*/4, /*cache_path=*/""});
  const auto event_out = executor.run(event_cells);
  const auto spmd_out = executor.run(spmd_cells);
  for (std::size_t i = 0; i < event_out.size(); ++i) {
    SCOPED_TRACE(event_cells[i].name);
    expect_results_equal(event_out[i].result, spmd_out[i].result);
  }
}

// The CSV artifact is wall-clock free and reproducible to the byte.
TEST(CampaignDeterminism, CsvArtifactHasNoWallClockAndReproduces) {
  for (const std::string& col : cg::csv_columns())
    EXPECT_EQ(col.find("wall"), std::string::npos) << col;

  const auto cells = cg::make_grid(small_grid(ex::EngineKind::kEvent));
  cg::CampaignExecutor executor({/*jobs=*/2, /*cache_path=*/""});
  const auto outcomes = executor.run(cells);
  const std::string a = testing::TempDir() + "campaign_rows_a.csv";
  const std::string b = testing::TempDir() + "campaign_rows_b.csv";
  {
    ut::CsvWriter csv(a);
    cg::write_csv(csv, cells, outcomes);
  }
  {
    ut::CsvWriter csv(b);
    cg::write_csv(csv, cells, outcomes);
  }
  const std::string bytes = slurp(a);
  EXPECT_FALSE(bytes.empty());
  EXPECT_EQ(bytes, slurp(b));
}

// Duplicate configurations (same canonical key under different names) are
// claimed exactly once: one execution, the rest served through the in-flight
// table as cache hits, identical results everywhere — at any --jobs value.
TEST(CampaignDeterminism, DuplicateKeysExecuteOnce) {
  cg::CellConfig base;
  base.name = "dup/0";
  base.params.nprocs = 4;
  base.params.num_dumps = 2;
  base.params.part_size = 1 << 12;
  std::vector<cg::CellConfig> cells;
  for (int i = 0; i < 12; ++i) {
    cg::CellConfig c = base;
    c.name = "dup/" + std::to_string(i);
    cells.push_back(c);
  }

  for (const int jobs : {1, 8}) {
    cg::CampaignExecutor executor({jobs, ""});
    const auto outcomes = executor.run(cells);
    EXPECT_EQ(executor.stats().executed, 1u) << "jobs " << jobs;
    EXPECT_EQ(executor.stats().cache_hits, 11u) << "jobs " << jobs;
    int fresh = 0;
    for (const auto& o : outcomes) {
      if (!o.from_cache) ++fresh;
      EXPECT_EQ(o.key, outcomes[0].key);
      expect_results_equal(o.result, outcomes[0].result);
    }
    EXPECT_EQ(fresh, 1) << "jobs " << jobs;
  }
}

// --------------------------------------------- cache-key completeness

// The property that makes cache hits safe: every field of macsio::Params
// that survives study resolution, and every field of core::StudyOptions,
// moves the canonical key when mutated. A field missed here would be a
// stale cache hit the first time someone sweeps it.
TEST(CampaignCacheKey, EveryConfigurationFieldMovesTheKey) {
  using Mutator = std::function<void(cg::CellConfig&)>;
  const cg::CellConfig base;  // default-constructed configuration
  const std::string base_key = cg::canonical_key(base);

  const std::vector<std::pair<std::string, Mutator>> live = {
      // macsio::Params, declaration order
      {"interface",
       [](cg::CellConfig& c) { c.params.interface = mc::Interface::kRaw; }},
      {"file_mode",
       [](cg::CellConfig& c) { c.params.file_mode = mc::FileMode::kSif; }},
      {"mif_files", [](cg::CellConfig& c) { c.params.mif_files = 3; }},
      {"num_dumps", [](cg::CellConfig& c) { c.params.num_dumps = 7; }},
      {"part_size", [](cg::CellConfig& c) { c.params.part_size = 4096; }},
      {"avg_num_parts",
       [](cg::CellConfig& c) { c.params.avg_num_parts = 2.5; }},
      {"vars_per_part", [](cg::CellConfig& c) { c.params.vars_per_part = 4; }},
      {"compute_time", [](cg::CellConfig& c) { c.params.compute_time = 0.5; }},
      {"meta_size", [](cg::CellConfig& c) { c.params.meta_size = 512; }},
      {"dataset_growth",
       [](cg::CellConfig& c) { c.params.dataset_growth = 1.013; }},
      {"aggregators", [](cg::CellConfig& c) { c.params.aggregators = 2; }},
      {"agg_link_bandwidth",
       [](cg::CellConfig& c) { c.params.agg_link_bandwidth = 1.0e9; }},
      {"stage_to_bb", [](cg::CellConfig& c) { c.params.stage_to_bb = true; }},
      {"prefetch_streams",
       [](cg::CellConfig& c) { c.params.prefetch_streams = 4; }},
      {"nprocs", [](cg::CellConfig& c) { c.params.nprocs = 16; }},
      {"output_dir",
       [](cg::CellConfig& c) { c.params.output_dir = "elsewhere"; }},
      {"fill", [](cg::CellConfig& c) { c.params.fill = mc::FillMode::kReal; }},
      {"seed", [](cg::CellConfig& c) { c.params.seed = 99; }},
      // core::StudyOptions, declaration order
      {"study.engine",
       [](cg::CellConfig& c) { c.study.engine = ex::EngineKind::kSpmd; }},
      {"study.codec", [](cg::CellConfig& c) { c.study.codec = "ebl"; }},
      {"study.codec_error_bound",
       [](cg::CellConfig& c) { c.study.codec_error_bound = 1.0e-5; }},
      {"study.codec_var_bounds",
       [](cg::CellConfig& c) { c.study.codec_var_bounds = "1e-2,1e-4"; }},
      {"study.codec_throughput",
       [](cg::CellConfig& c) { c.study.codec_throughput = 3.0e9; }},
      {"study.codec_decode_throughput",
       [](cg::CellConfig& c) { c.study.codec_decode_throughput = 6.0e9; }},
      {"study.restart", [](cg::CellConfig& c) { c.study.restart = true; }},
      {"study.restart_from_bb",
       [](cg::CellConfig& c) { c.study.restart_from_bb = true; }},
      {"study.trace_out",
       [](cg::CellConfig& c) { c.study.trace_out = "t.json"; }},
      {"study.metrics_out",
       [](cg::CellConfig& c) { c.study.metrics_out = "m.json"; }},
      {"study.explain_out",
       [](cg::CellConfig& c) { c.study.explain_out = "e.json"; }},
  };
  // 18 live Params fields + 11 StudyOptions fields. If a new field lands in
  // either struct, add its mutation here AND in canonical_key.
  EXPECT_EQ(live.size(), 29u);

  std::set<std::string> keys = {base_key};
  for (const auto& [name, mutate] : live) {
    cg::CellConfig cell = base;
    mutate(cell);
    const std::string key = cg::canonical_key(cell);
    EXPECT_NE(key, base_key) << "field '" << name
                             << "' does not move the cache key";
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), live.size() + 1)
      << "two field mutations collided onto one key";

  // The codec/restart fields of macsio::Params are *projected away* by
  // resolved_params (the study's copies win — run_cell never reads them), so
  // mutating them must NOT move the key: same execution, same cache slot.
  const std::vector<std::pair<std::string, Mutator>> shadowed = {
      {"params.codec", [](cg::CellConfig& c) { c.params.codec = "ebl"; }},
      {"params.codec_error_bound",
       [](cg::CellConfig& c) { c.params.codec_error_bound = 1.0e-7; }},
      {"params.codec_var_bounds",
       [](cg::CellConfig& c) { c.params.codec_var_bounds = "1e-3,1e-6"; }},
      {"params.codec_throughput",
       [](cg::CellConfig& c) { c.params.codec_throughput = 1.0e9; }},
      {"params.codec_decode_throughput",
       [](cg::CellConfig& c) { c.params.codec_decode_throughput = 2.0e9; }},
      {"params.restart", [](cg::CellConfig& c) { c.params.restart = true; }},
      {"params.restart_from_bb",
       [](cg::CellConfig& c) { c.params.restart_from_bb = true; }},
  };
  for (const auto& [name, mutate] : shadowed) {
    cg::CellConfig cell = base;
    mutate(cell);
    EXPECT_EQ(cg::canonical_key(cell), base_key)
        << "shadowed field '" << name << "' leaked into the cache key";
  }

  // Name is a display label, never part of the key.
  cg::CellConfig named = base;
  named.name = "some/other/label";
  EXPECT_EQ(cg::canonical_key(named), base_key);

#if defined(__x86_64__) && defined(__GLIBCXX__)
  // Struct-size tripwires: a new field changes these. When one fires, extend
  // canonical_key, the mutation lists above, bump kCacheSchemaVersion, and
  // update the expected sizes.
  EXPECT_EQ(sizeof(mc::Params), 240u)
      << "macsio::Params changed: update canonical_key + this test";
  EXPECT_EQ(sizeof(co::StudyOptions), 200u)
      << "core::StudyOptions changed: update canonical_key + this test";
#endif
}

TEST(CampaignCacheKey, SchemaVersionPrefixesTheKey) {
  const std::string key = cg::canonical_key(cg::CellConfig{});
  EXPECT_EQ(key.rfind("amrio-campaign-v" +
                          std::to_string(cg::kCacheSchemaVersion) + "|",
                      0),
            0u);
}

// ------------------------------------------------- cache persistence

TEST(CampaignCache, JsonRoundTripIsExact) {
  cg::ResultCache cache;
  cg::CellResult r;
  r.raw_bytes = 123456789012345ull;
  r.encoded_bytes = 987654321ull;
  r.total_bytes = 123456789054321ull;
  r.nfiles = 17;
  r.encode_seconds = 0.1 + 1.0 / 3.0;  // not representable in short decimal
  r.dump_seconds = 1.2345678901234567e-3;
  r.sustained_seconds = 9.87654321e2;
  r.perceived_bandwidth = 1.0e9 / 3.0;
  r.sustained_bandwidth = 2.0e9 / 7.0;
  r.critical_stage = "pfs_write";
  r.critical_frac = 0.625;
  r.binding_resource = "ost";
  r.restart_seconds = 4.0 / 7.0;
  r.restart_decode_gate = 1.0e-7 / 3.0;
  cg::CellResult r2 = r;
  r2.dump_seconds *= 2;
  cache.insert("amrio-campaign-v1|a", r);
  cache.insert("amrio-campaign-v1|b", r2);

  const std::string path = testing::TempDir() + "campaign_cache_rt.json";
  cache.save(path);

  cg::ResultCache loaded;
  EXPECT_EQ(loaded.load(path), 2u);
  EXPECT_EQ(loaded.size(), 2u);
  cg::CellResult got;
  ASSERT_TRUE(loaded.lookup("amrio-campaign-v1|a", &got));
  expect_results_equal(got, r);  // %.17g doubles round-trip exactly
  ASSERT_TRUE(loaded.lookup("amrio-campaign-v1|b", &got));
  expect_results_equal(got, r2);

  // Saving the loaded cache reproduces the file byte for byte.
  const std::string path2 = testing::TempDir() + "campaign_cache_rt2.json";
  loaded.save(path2);
  EXPECT_EQ(slurp(path), slurp(path2));
}

TEST(CampaignCache, MissingFileIsColdAndOtherSchemaIsDiscarded) {
  cg::ResultCache cache;
  EXPECT_EQ(cache.load(testing::TempDir() + "campaign_cache_nope.json"), 0u);
  EXPECT_EQ(cache.size(), 0u);

  const std::string stale = testing::TempDir() + "campaign_cache_stale.json";
  {
    std::ofstream out(stale);
    out << "{\"schema_version\": 0, \"entries\": [{\"key\": \"k\","
           " \"raw_bytes\": 1}]}";
  }
  EXPECT_EQ(cache.load(stale), 0u);
  EXPECT_EQ(cache.size(), 0u);

  const std::string bad = testing::TempDir() + "campaign_cache_bad.json";
  {
    std::ofstream out(bad);
    out << "{ not json";
  }
  EXPECT_THROW(cache.load(bad), std::runtime_error);
}

// The acceptance-criteria campaign: the full >= 500-cell Table III grid runs
// multi-threaded and cold, persists its cache, and a second executor (a
// fresh process in CI terms) resolves every cell from the cache without
// simulating — with byte-identical canonical rows.
TEST(CampaignCache, ColdThenWarmFullTable3Grid) {
  const std::vector<cg::CellConfig> cells = cg::make_grid(cg::table3_grid());
  ASSERT_GE(cells.size(), 500u);

  const std::string path = testing::TempDir() + "campaign_cache_t3.json";
  std::remove(path.c_str());

  cg::CampaignExecutor cold({/*jobs=*/8, path});
  const auto cold_out = cold.run(cells);
  EXPECT_EQ(cold.stats().cells, cells.size());
  EXPECT_EQ(cold.stats().executed, cells.size());
  EXPECT_EQ(cold.stats().cache_hits, 0u);

  cg::CampaignExecutor warm({/*jobs=*/8, path});
  const auto warm_out = warm.run(cells);
  EXPECT_EQ(warm.stats().executed, 0u) << "warm run re-simulated a cell";
  EXPECT_EQ(warm.stats().cache_hits, cells.size());
  for (const auto& o : warm_out) EXPECT_TRUE(o.from_cache);

  EXPECT_EQ(cg::csv_rows(cells, cold_out), cg::csv_rows(cells, warm_out));
}

// --------------------------------------------------- predict service

// Fit on a coarse rank grid, hold out a rank count the fit never saw, and
// pin the dump-time prediction within a stated tolerance on both engines.
// The analytic encoded-bytes prediction must match execution exactly.
TEST(CampaignPredict, HeldOutRankWithinTolerance) {
  constexpr double kTolerance = 0.35;  // stated: |pred - actual| / actual
  for (const ex::EngineKind engine :
       {ex::EngineKind::kEvent, ex::EngineKind::kSpmd}) {
    SCOPED_TRACE(ex::engine_kind_name(engine));
    cg::GridSpec spec;
    spec.interfaces = {mc::Interface::kMiftmpl};
    spec.stagings = {{"direct", mc::FileMode::kMif, false, false}};
    spec.codecs = {{"identity", "identity", 0.0, ""}};
    spec.engines = {engine};
    spec.rank_counts = {8, 16, 32, 64};
    const auto train = cg::make_grid(spec);
    spec.rank_counts = {24};
    const auto holdout = cg::make_grid(spec);

    cg::CampaignExecutor executor({/*jobs=*/4, ""});
    const auto train_out = executor.run(train);
    const auto hold_out = executor.run(holdout);

    cg::PredictService predict;
    predict.fit(train, train_out);
    EXPECT_LT(predict.calibration_error(), 0.25);
    EXPECT_FALSE(predict.report().empty());

    const auto p = predict.predict(holdout[0]);
    EXPECT_TRUE(p.exact_stratum);
    EXPECT_EQ(p.encoded_bytes, hold_out[0].result.encoded_bytes);
    const double actual = hold_out[0].result.dump_seconds;
    ASSERT_GT(actual, 0.0);
    EXPECT_LT(std::abs(p.dump_seconds - actual) / actual, kTolerance)
        << "predicted " << p.dump_seconds << " actual " << actual;
  }
}

// Restart-enabled strata fit and predict the restart read-back time too.
TEST(CampaignPredict, RestartTimesArePredicted) {
  cg::GridSpec spec;
  spec.interfaces = {mc::Interface::kMiftmpl};
  spec.stagings = {{"direct", mc::FileMode::kMif, false, false}};
  spec.codecs = {{"ebl@1e-3", "ebl", 1.0e-3, ""}};
  spec.engines = {ex::EngineKind::kEvent};
  spec.rank_counts = {8, 16, 32};
  auto train = cg::make_grid(spec);
  for (auto& c : train) c.study.restart = true;

  cg::CampaignExecutor executor({/*jobs=*/2, ""});
  const auto train_out = executor.run(train);
  for (const auto& o : train_out) EXPECT_GT(o.result.restart_seconds, 0.0);

  cg::PredictService predict;
  predict.fit(train, train_out);
  cg::CellConfig query = train[0];
  query.name = "whatif/r12";
  query.params.nprocs = 12;
  const auto p = predict.predict(query);
  EXPECT_TRUE(p.exact_stratum);
  EXPECT_GT(p.dump_seconds, 0.0);
  EXPECT_GT(p.restart_seconds, 0.0);
}

// The byte model is analytic, not fitted: for unaggregated dump paths the
// predicted encoded bytes equal the executed cell's to the byte, across
// interfaces and codecs (incl. per-variable bounds).
TEST(CampaignPredict, AnalyticBytesMatchExecutionExactly) {
  cg::GridSpec spec;
  spec.interfaces = {mc::Interface::kMiftmpl, mc::Interface::kH5Lite,
                     mc::Interface::kRaw};
  spec.stagings = {
      {"direct", mc::FileMode::kMif, false, false},
      {"bb", mc::FileMode::kMif, false, true},
      {"sif", mc::FileMode::kSif, false, false},
  };
  spec.codecs = {
      {"identity", "identity", 0.0, ""},
      {"lossless", "lossless", 0.0, ""},
      {"ebl@1e-3", "ebl", 1.0e-3, ""},
      {"ebl@vars", "ebl", 1.0e-3, "1e-2,1e-5"},
  };
  spec.engines = {ex::EngineKind::kEvent};
  spec.rank_counts = {5, 8};
  const auto cells = cg::make_grid(spec);

  cg::CampaignExecutor executor({/*jobs=*/4, ""});
  const auto outcomes = executor.run(cells);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].name);
    EXPECT_EQ(cg::PredictService::predicted_cell_bytes(cells[i]),
              outcomes[i].result.encoded_bytes);
  }
}

TEST(CampaignPredict, PredictBeforeFitThrows) {
  cg::PredictService predict;
  EXPECT_THROW(predict.predict(cg::CellConfig{}), amrio::ContractViolation);
}

// ------------------------------------------- per-variable error bounds

TEST(CampaignVarBounds, ParseFormatRoundTripAndValidation) {
  const std::vector<double> b = cd::parse_var_bounds("1e-2,1e-5");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b[0], 1e-2);
  EXPECT_DOUBLE_EQ(b[1], 1e-5);
  EXPECT_EQ(cd::parse_var_bounds(cd::format_var_bounds(b)), b);
  EXPECT_TRUE(cd::parse_var_bounds("").empty());

  EXPECT_THROW(cd::parse_var_bounds("abc"), std::invalid_argument);
  EXPECT_THROW(cd::parse_var_bounds("1e-3,2.0"), std::invalid_argument);

  // Per-variable bounds require the ebl codec. Params::validate() wraps
  // every rejection as ContractViolation (the std::invalid_argument shape
  // belongs to from_cli / codec::validate_spec).
  mc::Params p;
  p.codec = "lossless";
  p.codec_var_bounds = "1e-3,1e-5";
  EXPECT_THROW(p.validate(), amrio::ContractViolation);
  p.codec = "ebl";
  EXPECT_NO_THROW(p.validate());
}

// Tightening one variable's bound grows the encoded stream: the sweep
// dimension actually sweeps.
TEST(CampaignVarBounds, TighterVariableBoundGrowsEncodedBytes) {
  cg::CellConfig loose;
  loose.name = "vb/loose";
  loose.params.nprocs = 4;
  loose.params.num_dumps = 2;
  loose.params.part_size = 1 << 14;
  loose.params.vars_per_part = 2;
  loose.study.codec = "ebl";
  loose.study.codec_var_bounds = "1e-2,1e-2";
  cg::CellConfig tight = loose;
  tight.name = "vb/tight";
  tight.study.codec_var_bounds = "1e-2,1e-9";

  const cg::CellResult rl = cg::run_cell(loose);
  const cg::CellResult rt = cg::run_cell(tight);
  EXPECT_EQ(rl.raw_bytes, rt.raw_bytes);
  EXPECT_GT(rt.encoded_bytes, rl.encoded_bytes)
      << "tighter second-variable bound should cost bytes";
  EXPECT_NE(cg::canonical_key(loose), cg::canonical_key(tight));
}

// ------------------------------------------------- study-sweep surface

TEST(CampaignSweep, StudySweepAlignsOutcomesWithVariants) {
  mc::Params base;
  base.nprocs = 4;
  base.num_dumps = 2;
  base.part_size = 1 << 12;
  std::vector<co::StudyOptions> variants(2);
  variants[1].codec = "ebl";
  variants[1].codec_error_bound = 1.0e-3;

  const co::StudySweepResult res = co::study_sweep(base, variants, {2, ""});
  ASSERT_EQ(res.outcomes.size(), 2u);
  EXPECT_EQ(res.stats.cells, 2u);
  EXPECT_EQ(res.stats.executed, 2u);
  EXPECT_GT(res.outcomes[0].result.encoded_bytes, 0u);
  // the ebl variant compresses; identity does not
  EXPECT_LT(res.outcomes[1].result.encoded_bytes,
            res.outcomes[0].result.encoded_bytes);
  EXPECT_EQ(res.outcomes[0].result.raw_bytes,
            res.outcomes[1].result.raw_bytes);
}
