/// Tests for exec::EventEngine (the discrete-event engine for machine-scale
/// rank counts) beyond the shared EngineCollectives suite in test_exec.cpp:
/// the engine-parity matrix — event vs the threaded spmd reference over
/// MIF/SIF × {direct, agg, bb} × {identity, ebl} at 32 ranks, write AND
/// restart, byte-identical documents and identical stats — plus the
/// SpmdEngine thread cap, deadlock detection, determinism, the --engine CLI
/// surface, the StudyOptions composition through core::proxy_study, and a
/// large-rank smoke run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/amrio.hpp"
#include "exec/engine.hpp"
#include "macsio/driver.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "pfs/backend.hpp"
#include "util/assert.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;

namespace {

enum class Staging { kDirect, kAgg, kBb };

const char* staging_name(Staging s) {
  switch (s) {
    case Staging::kDirect: return "direct";
    case Staging::kAgg: return "agg";
    case Staging::kBb: return "bb";
  }
  return "?";
}

mc::Params matrix_params(mc::FileMode mode, Staging staging,
                         const std::string& codec) {
  mc::Params params;
  params.nprocs = 32;
  params.file_mode = mode;
  params.num_dumps = 2;
  params.part_size = 1500;
  params.avg_num_parts = 1.25;
  params.dataset_growth = 1.05;
  params.meta_size = 16;
  params.codec = codec;
  params.restart = true;
  switch (staging) {
    case Staging::kDirect:
      break;
    case Staging::kAgg:
      params.aggregators = 8;
      break;
    case Staging::kBb:
      params.stage_to_bb = true;
      params.restart_from_bb = true;
      break;
  }
  params.validate();
  return params;
}

struct EngineRunResult {
  mc::DumpStats dump;
  mc::RestartStats restart;
  /// Exported observability artifacts of the run: the Chrome-trace JSON of
  /// the merged span stream (driver spans + a BB-tier SimFs replay) and the
  /// metrics snapshot. The parity contract is byte-identity.
  std::string trace_json;
  std::string metrics_json;
};

EngineRunResult run_matrix_point(ex::EngineKind kind, const mc::Params& params,
                                 p::MemoryBackend& backend) {
  const auto engine = ex::make_engine(kind, params.nprocs);
  amrio::obs::Tracer tracer;
  amrio::obs::MetricsRegistry metrics;
  const amrio::obs::Probe probe{&tracer, &metrics};
  EngineRunResult r;
  r.dump = mc::run_macsio(*engine, params, backend, nullptr, probe);
  r.restart = mc::run_restart(*engine, params, backend, nullptr, probe);
  // Replay both request streams through a BB-enabled reference model so the
  // span stream covers every pipeline stage, then export deterministically.
  p::SimFsConfig cfg;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 2;
  cfg.bb.ranks_per_node = 16;
  p::SimFs fs(cfg);
  (void)fs.run(r.dump.requests, probe);
  (void)fs.run(r.restart.requests, probe);
  std::ostringstream ts;
  amrio::obs::write_chrome_trace(ts, tracer.spans(), tracer.edges());
  r.trace_json = ts.str();
  std::ostringstream ms;
  amrio::obs::write_metrics_json(ms, metrics.snapshot());
  r.metrics_json = ms.str();
  return r;
}

void expect_requests_equal(const std::vector<p::IoRequest>& a,
                           const std::vector<p::IoRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].client, b[i].client) << i;
    EXPECT_DOUBLE_EQ(a[i].submit_time, b[i].submit_time) << i;
    EXPECT_EQ(a[i].file, b[i].file) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_EQ(a[i].tier, b[i].tier) << i;
  }
}

void expect_codec_totals_equal(const amrio::codec::CodecTotals& a,
                               const amrio::codec::CodecTotals& b) {
  EXPECT_EQ(a.raw_bytes, b.raw_bytes);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
  EXPECT_EQ(a.chunks, b.chunks);
  EXPECT_DOUBLE_EQ(a.encode_seconds, b.encode_seconds);
  EXPECT_DOUBLE_EQ(a.decode_seconds, b.decode_seconds);
}

/// Everything an engine run produces — stored document bytes, write-side
/// stats, restart stats, request timelines — must match the spmd reference.
void expect_parity(const EngineRunResult& got, const p::MemoryBackend& got_be,
                   const EngineRunResult& ref, const p::MemoryBackend& ref_be) {
  // write side
  EXPECT_EQ(got.dump.total_bytes, ref.dump.total_bytes);
  EXPECT_EQ(got.dump.nfiles, ref.dump.nfiles);
  EXPECT_EQ(got.dump.bytes_per_dump, ref.dump.bytes_per_dump);
  EXPECT_EQ(got.dump.task_bytes, ref.dump.task_bytes);
  expect_codec_totals_equal(got.dump.codec.total, ref.dump.codec.total);
  expect_requests_equal(got.dump.requests, ref.dump.requests);

  // stored documents, byte for byte
  EXPECT_EQ(got_be.total_bytes(), ref_be.total_bytes());
  const auto paths = ref_be.list("");
  ASSERT_EQ(got_be.list(""), paths);
  for (const auto& path : paths)
    EXPECT_EQ(got_be.read(path), ref_be.read(path)) << path;

  // restart side
  EXPECT_EQ(got.restart.dump, ref.restart.dump);
  EXPECT_EQ(got.restart.task_bytes, ref.restart.task_bytes);
  EXPECT_EQ(got.restart.task_hash, ref.restart.task_hash);
  EXPECT_EQ(got.restart.raw_bytes, ref.restart.raw_bytes);
  EXPECT_EQ(got.restart.encoded_bytes, ref.restart.encoded_bytes);
  EXPECT_DOUBLE_EQ(got.restart.decode_gate, ref.restart.decode_gate);
  EXPECT_DOUBLE_EQ(got.restart.scatter_seconds, ref.restart.scatter_seconds);
  expect_codec_totals_equal(got.restart.codec.total, ref.restart.codec.total);
  expect_requests_equal(got.restart.requests, ref.restart.requests);

  // observability side: the merged span stream and the metrics snapshot are
  // part of the engine-parity contract — byte-identical exports
  EXPECT_EQ(got.trace_json, ref.trace_json);
  EXPECT_EQ(got.metrics_json, ref.metrics_json);
}

}  // namespace

// ------------------------------------------------ event vs spmd parity

class EventSpmdParity
    : public ::testing::TestWithParam<
          std::tuple<mc::FileMode, Staging, std::string>> {};

TEST_P(EventSpmdParity, EventMatchesSpmdOnWriteAndRestart) {
  const auto [mode, staging, codec] = GetParam();
  const auto params = matrix_params(mode, staging, codec);

  p::MemoryBackend spmd_be(true);
  const auto ref = run_matrix_point(ex::EngineKind::kSpmd, params, spmd_be);

  p::MemoryBackend event_be(true);
  const auto event = run_matrix_point(ex::EngineKind::kEvent, params, event_be);
  expect_parity(event, event_be, ref, spmd_be);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EventSpmdParity,
    ::testing::Values(
        // MIF × {direct, agg, bb} × {identity, ebl}
        std::tuple{mc::FileMode::kMif, Staging::kDirect, std::string("identity")},
        std::tuple{mc::FileMode::kMif, Staging::kDirect, std::string("ebl")},
        std::tuple{mc::FileMode::kMif, Staging::kAgg, std::string("identity")},
        std::tuple{mc::FileMode::kMif, Staging::kAgg, std::string("ebl")},
        std::tuple{mc::FileMode::kMif, Staging::kBb, std::string("identity")},
        std::tuple{mc::FileMode::kMif, Staging::kBb, std::string("ebl")},
        // SIF × {direct, bb} × {identity, ebl} (SIF × agg is rejected by
        // Params::validate — aggregation requires MIF)
        std::tuple{mc::FileMode::kSif, Staging::kDirect, std::string("identity")},
        std::tuple{mc::FileMode::kSif, Staging::kDirect, std::string("ebl")},
        std::tuple{mc::FileMode::kSif, Staging::kBb, std::string("identity")},
        std::tuple{mc::FileMode::kSif, Staging::kBb, std::string("ebl")}),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == mc::FileMode::kMif
                             ? "mif"
                             : "sif") +
             "_" + staging_name(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param);
    });

// ------------------------------------------------- event engine specifics

TEST(EventEngine, DeterministicScheduleAndRepeatableBytes) {
  // The schedule is a pure function of the driver body: the order ranks pass
  // a barrier window must be identical run to run (fresh starts ascending,
  // releases in arrival order).
  auto order_of = []() {
    std::vector<int> order;
    ex::EventEngine engine(24);
    engine.run([&](ex::RankCtx& ctx) {
      ctx.barrier();
      order.push_back(ctx.rank());  // single-threaded: no race
      ctx.barrier();
    });
    return order;
  };
  EXPECT_EQ(order_of(), order_of());
}

TEST(EventEngine, MismatchedCollectivesDeadlockDetected) {
  ex::EventEngine engine(3);
  try {
    engine.run([](ex::RankCtx& ctx) {
      if (ctx.rank() == 0) (void)ctx.recv_token(1, 9);  // never sent
    });
    FAIL() << "expected deadlock to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(EventEngine, RankExceptionUnwindsAllRanks) {
  // Peers blocked on collectives must observe the abort and unwind (their
  // locals are destructed), and run() rethrows the original error.
  ex::EventEngine engine(16);
  int destructed = 0;
  struct Probe {
    int* counter;
    ~Probe() { ++*counter; }
  };
  try {
    engine.run([&](ex::RankCtx& ctx) {
      Probe probe{&destructed};
      if (ctx.rank() == 5) throw std::logic_error("rank 5 died");
      ctx.barrier();
    });
    FAIL() << "expected rank error to propagate";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "rank 5 died");
  }
  EXPECT_EQ(destructed, 16);
}

TEST(EventEngine, NestedRunIsAllowed) {
  // A rank body may spin up its own inner EventEngine (the calibrator's
  // replay-inside-a-study pattern); the inner scheduler runs synchronously
  // within the outer rank's time slice.
  ex::EventEngine outer(4);
  std::vector<std::uint64_t> sums;
  outer.run([&](ex::RankCtx& octx) {
    if (octx.rank() == 2) {
      ex::EventEngine inner(8);
      std::uint64_t last = 0;
      inner.run([&](ex::RankCtx& ictx) {
        const auto prefix = ictx.exscan_sum(1);
        if (ictx.rank() == 7) last = prefix;
      });
      sums.push_back(last);  // rank 7's prefix = 7
    }
    octx.barrier();
  });
  ASSERT_EQ(sums.size(), 1u);
  EXPECT_EQ(sums[0], 7u);
}

TEST(EventEngine, LargeRankSmoke) {
  // O(active) scheduling at a six-figure rank count: spin-up, one exscan and
  // one barrier across 131,072 virtual ranks. With per-rank stacks this
  // would be 16 GiB of fiber stacks; here it completes in well under a
  // second on anything.
  const int n = 131072;
  ex::EventEngine engine(n);
  std::uint64_t last_prefix = 0;
  engine.run([&](ex::RankCtx& ctx) {
    const auto prefix = ctx.exscan_sum(1);
    EXPECT_EQ(prefix, static_cast<std::uint64_t>(ctx.rank()));
    ctx.barrier();
    if (ctx.rank() == n - 1) last_prefix = prefix;
  });
  EXPECT_EQ(last_prefix, static_cast<std::uint64_t>(n - 1));
}

TEST(EventEngine, RejectsOutOfRangeConfig) {
  EXPECT_THROW(ex::EventEngine(0), amrio::ContractViolation);
  EXPECT_THROW(ex::EventEngine(1 << 24), amrio::ContractViolation);
  EXPECT_THROW(ex::EventEngine(4, /*exec_stack_bytes=*/1024),
               amrio::ContractViolation);
}

TEST(EventEngine, RejectsOutOfRangeTags) {
  ex::EventEngine engine(2);
  EXPECT_THROW(engine.run([](ex::RankCtx& ctx) {
                 if (ctx.rank() == 0) ctx.send_token(1, 1, 70000);
               }),
               amrio::ContractViolation);
}

// ------------------------------------------------------ spmd thread cap

TEST(SpmdEngine, FailsFastAboveThreadCap) {
  // Configurable cap: above it the constructor must throw with a message
  // that points at --engine=event, instead of exhausting the machine on
  // pthread_create mid-run.
  ASSERT_EQ(setenv("AMRIO_SPMD_THREAD_CAP", "8", 1), 0);
  EXPECT_EQ(ex::SpmdEngine::thread_cap(), 8);
  try {
    ex::SpmdEngine engine(9);
    FAIL() << "expected the thread cap to reject 9 ranks";
  } catch (const amrio::ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--engine=event"), std::string::npos) << what;
    EXPECT_NE(what.find("thread cap"), std::string::npos) << what;
  }
  // at the cap is fine
  ex::SpmdEngine ok(8);
  EXPECT_EQ(ok.nranks(), 8);
  ASSERT_EQ(unsetenv("AMRIO_SPMD_THREAD_CAP"), 0);
  EXPECT_EQ(ex::SpmdEngine::thread_cap(), 1024);  // default restored
}

// ------------------------------------------------------- CLI surface

TEST(EngineKindCli, NamesRoundTrip) {
  EXPECT_EQ(ex::engine_kind_from_name("spmd"), ex::EngineKind::kSpmd);
  EXPECT_EQ(ex::engine_kind_from_name("event"), ex::EngineKind::kEvent);
  for (const auto kind : {ex::EngineKind::kSpmd, ex::EngineKind::kEvent}) {
    EXPECT_EQ(ex::engine_kind_from_name(ex::engine_kind_name(kind)), kind);
    EXPECT_STREQ(ex::make_engine(kind, 2)->name(), ex::engine_kind_name(kind));
  }
}

TEST(EngineKindCli, SerialIsOnlyAGridLabel) {
  // kSerial names one half of the campaign grid's engine axis; it keeps its
  // "serial" label but runs on the event engine, and --engine rejects it.
  EXPECT_STREQ(ex::engine_kind_name(ex::EngineKind::kSerial), "serial");
  EXPECT_STREQ(ex::make_engine(ex::EngineKind::kSerial, 2)->name(), "event");
  EXPECT_THROW(ex::engine_kind_from_name("serial"), std::invalid_argument);
}

TEST(EngineKindCli, UnknownNameThrows) {
  EXPECT_THROW(ex::engine_kind_from_name("fiber"), std::invalid_argument);
  EXPECT_THROW(ex::engine_kind_from_name(""), std::invalid_argument);
  try {
    (void)ex::engine_kind_from_name("threads");
    FAIL() << "expected an unknown engine name to throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("event, spmd"), std::string::npos)
        << e.what();
  }
}

// ------------------------------------- study options compose (satellite)

TEST(ProxyStudy, EngineCodecRestartComposeInOneEntryPoint) {
  namespace core = amrio::core;
  core::CaseConfig cfg;
  cfg.name = "study_opts";
  cfg.ncell = 32;
  cfg.max_level = 1;
  cfg.max_step = 12;
  cfg.plot_int = 3;
  cfg.nprocs = 8;
  cfg.max_grid_size = 16;
  const auto run = core::run_case(cfg);

  const auto plain = core::calibrate_and_validate(run, 1.0, 1.2);

  // plain runs on the default event engine; composed on the spmd threads.
  EXPECT_EQ(core::StudyOptions{}.engine, ex::EngineKind::kEvent);
  core::StudyOptions opts;
  opts.engine = ex::EngineKind::kSpmd;
  opts.codec = "ebl";
  opts.restart = true;
  const auto composed = core::calibrate_and_validate(run, opts, 1.0, 1.2);

  // the engine/codec/restart knobs must not perturb the byte-accuracy story
  EXPECT_EQ(composed.proxy_per_step, plain.proxy_per_step);
  EXPECT_DOUBLE_EQ(composed.mean_abs_rel_err, plain.mean_abs_rel_err);
  // ... while actually engaging the codec and restart subsystems
  EXPECT_GT(composed.proxy_stats.codec.total.raw_bytes, 0u);
  EXPECT_LT(composed.proxy_stats.codec.total.encoded_bytes,
            composed.proxy_stats.codec.total.raw_bytes);
  EXPECT_GT(composed.restart_stats.raw_bytes, 0u);
  EXPECT_EQ(composed.restart_stats.task_bytes.size(),
            static_cast<std::size_t>(8));
  // restart untouched by default
  EXPECT_EQ(plain.restart_stats.raw_bytes, 0u);
}
