/// Tests for the unified execution engine (exec::EventEngine virtual ranks,
/// exec::SpmdEngine threads): collective semantics, the single-rank case,
/// error propagation, and the headline guarantee — event-engine and SPMD
/// executions of the MACSio and plotfile drivers are byte-identical because
/// they run the same body.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "exec/engine.hpp"
#include "iostats/trace.hpp"
#include "macsio/driver.hpp"
#include "mesh/distribution.hpp"
#include "mesh/multifab.hpp"
#include "obs/metrics.hpp"
#include "pfs/backend.hpp"
#include "plotfile/writer.hpp"
#include "util/assert.hpp"
#include "util/path.hpp"

namespace ex = amrio::exec;
namespace mc = amrio::macsio;
namespace p = amrio::pfs;
namespace pf = amrio::plotfile;
namespace m = amrio::mesh;

// ----------------------------------------------------------- collectives

class EngineCollectives : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(EngineCollectives, BarrierAndRankIdentity) {
  const int n = 7;
  const auto engine = ex::make_engine(GetParam(), n);
  EXPECT_EQ(engine->nranks(), n);
  std::atomic<int> count{0};
  engine->run([&](ex::RankCtx& ctx) {
    EXPECT_EQ(ctx.nranks(), n);
    EXPECT_GE(ctx.rank(), 0);
    EXPECT_LT(ctx.rank(), n);
    count.fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(count.load(), n);
  });
}

TEST_P(EngineCollectives, ExscanSum) {
  const int n = 9;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    const auto r = static_cast<std::uint64_t>(ctx.rank());
    const std::uint64_t prefix = ctx.exscan_sum(r + 1);
    // sum of (1..rank): rank 0 gets 0
    EXPECT_EQ(prefix, r * (r + 1) / 2);
  });
}

TEST_P(EngineCollectives, GatherDeliversAtRootOnly) {
  const int n = 6;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    const auto got = ctx.gather(static_cast<std::uint64_t>(ctx.rank() * 10), 2);
    if (ctx.rank() == 2) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r)
        EXPECT_EQ(got[static_cast<std::size_t>(r)],
                  static_cast<std::uint64_t>(r * 10));
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(EngineCollectives, GathervConcatenatesInRankOrder) {
  const int n = 5;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    // rank r contributes r+1 bytes with value r
    std::vector<std::byte> mine(static_cast<std::size_t>(ctx.rank() + 1),
                                static_cast<std::byte>(ctx.rank()));
    const auto got = ctx.gatherv(mine, 0);
    if (ctx.rank() == 0) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(n * (n + 1) / 2));
      std::size_t i = 0;
      for (int r = 0; r < n; ++r)
        for (int k = 0; k <= r; ++k)
          EXPECT_EQ(got[i++], static_cast<std::byte>(r));
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(EngineCollectives, TokenPassingChain) {
  const int n = 8;
  const auto engine = ex::make_engine(GetParam(), n);
  engine->run([&](ex::RankCtx& ctx) {
    std::uint64_t acc = 0;
    if (ctx.rank() > 0) acc = ctx.recv_token(ctx.rank() - 1, 5);
    acc += static_cast<std::uint64_t>(ctx.rank());
    if (ctx.rank() + 1 < n) ctx.send_token(acc, ctx.rank() + 1, 5);
    if (ctx.rank() == n - 1) {
      EXPECT_EQ(acc, static_cast<std::uint64_t>(n * (n - 1) / 2));
    }
  });
}

TEST_P(EngineCollectives, RankExceptionPropagates) {
  const auto engine = ex::make_engine(GetParam(), 4);
  EXPECT_THROW(engine->run([&](ex::RankCtx& ctx) {
                 if (ctx.rank() == 2) throw std::runtime_error("rank 2 died");
                 ctx.barrier();  // peers must not hang
                 ctx.barrier();
               }),
               std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(Kinds, EngineCollectives,
                         ::testing::Values(ex::EngineKind::kSpmd,
                                           ex::EngineKind::kEvent));

// ------------------------------------------------ single-rank event engine
//
// One rank is an ordinary EventEngine run: every collective releases on the
// caller's own arrival, and every p2p call fails its precondition because a
// rank cannot address itself.

TEST(EventEngineOneRank, CollectivesReleaseOnArrival) {
  ex::EventEngine engine(1);
  int bodies = 0;
  engine.run([&](ex::RankCtx& ctx) {
    ++bodies;
    EXPECT_EQ(ctx.rank(), 0);
    EXPECT_EQ(ctx.nranks(), 1);
    ctx.barrier();
    EXPECT_EQ(ctx.exscan_sum(42), 0u);
    EXPECT_EQ(ctx.gather(7, 0), std::vector<std::uint64_t>{7});
    const std::vector<std::byte> mine = {std::byte{1}, std::byte{2},
                                         std::byte{3}};
    EXPECT_EQ(ctx.gatherv(mine, 0), mine);
    EXPECT_TRUE(ctx.gatherv({}, 0).empty());
    ctx.barrier();
  });
  EXPECT_EQ(bodies, 1);
}

TEST(EventEngineOneRank, GroupCollectivesOfOneKeepTheOwnBuffer) {
  ex::EventEngine engine(1);
  amrio::obs::MetricsRegistry metrics;
  const amrio::obs::Probe probe{nullptr, &metrics};
  engine.run([&](ex::RankCtx& ctx) {
    const std::vector<int> members = {0};
    std::vector<std::byte> mine(5, std::byte{9});
    const std::byte* filled = mine.data();
    int calls = 0;
    ex::gatherv_group(
        ctx, std::move(mine), members, 0, 3,
        [&](int member, std::vector<std::byte> payload) {
          ++calls;
          EXPECT_EQ(member, 0);
          EXPECT_EQ(payload.data(), filled);
        },
        probe);
    EXPECT_EQ(calls, 1);
    const std::vector<std::byte> doc = {std::byte{4}, std::byte{2}};
    std::vector<std::vector<std::byte>> payloads = {doc};
    EXPECT_EQ(ex::scatterv_group(ctx, std::move(payloads), members, 0, 4,
                                 probe),
              doc);
  });
  const auto snap = metrics.snapshot();
  EXPECT_EQ(snap.counters.at("exec.gatherv.calls"), 1);
  EXPECT_EQ(snap.counters.at("exec.gatherv.messages"), 0);
  EXPECT_EQ(snap.counters.at("exec.scatterv.calls"), 1);
  EXPECT_EQ(snap.counters.at("exec.scatterv.bytes"), 0);
}

TEST(EventEngineOneRank, CollectiveRootOutOfRangeIsRejected) {
  ex::EventEngine engine(1);
  EXPECT_THROW(engine.run([](ex::RankCtx& ctx) { (void)ctx.gather(1, 1); }),
               amrio::ContractViolation);
  EXPECT_THROW(
      engine.run([](ex::RankCtx& ctx) { (void)ctx.gatherv({}, -1); }),
      amrio::ContractViolation);
}

TEST(EventEngineOneRank, PointToPointMisuseIsRejected) {
  ex::EventEngine engine(1);
  // To itself (the only rank) and to a rank that does not exist.
  for (const int peer : {0, 1}) {
    SCOPED_TRACE("peer " + std::to_string(peer));
    EXPECT_THROW(engine.run([&](ex::RankCtx& ctx) {
                   ctx.send_token(1, peer, 0);
                 }),
                 amrio::ContractViolation);
    EXPECT_THROW(engine.run([&](ex::RankCtx& ctx) {
                   (void)ctx.recv_token(peer, 0);
                 }),
                 amrio::ContractViolation);
    EXPECT_THROW(engine.run([&](ex::RankCtx& ctx) {
                   ctx.send_bytes({}, peer, 0);
                 }),
                 amrio::ContractViolation);
    EXPECT_THROW(engine.run([&](ex::RankCtx& ctx) {
                   (void)ctx.recv_bytes(peer, 0);
                 }),
                 amrio::ContractViolation);
  }
  // The engine stays usable after a failed run.
  int bodies = 0;
  engine.run([&](ex::RankCtx& ctx) {
    ctx.barrier();
    ++bodies;
  });
  EXPECT_EQ(bodies, 1);
}

// ------------------------------------------- owned group collectives

namespace {

/// Group layout of the owned-collective tests: 12 ranks, groups of sizes
/// 5/4/3 (uneven, so member order matters), aggregator = first member.
struct GroupOf {
  std::vector<int> members;
  int root = 0;
};

GroupOf group_of(int rank) {
  static const std::vector<std::vector<int>> kGroups = {
      {0, 1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11}};
  for (const auto& g : kGroups)
    if (rank >= g.front() && rank <= g.back()) return {g, g.front()};
  return {};
}

/// Rank-distinct content: rank r's payload is 97*r+3 bytes of a pattern.
std::vector<std::byte> pattern_of(int r) {
  std::vector<std::byte> out(static_cast<std::size_t>(97 * r + 3));
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::byte>((i * 31 + static_cast<std::size_t>(r)) &
                                    0xff);
  return out;
}

/// What each rank received (gather: root's concatenated payload list;
/// scatter: every rank's own payload) plus the probe's metrics snapshot.
struct GroupRun {
  std::map<int, std::vector<std::vector<std::byte>>> got;
  amrio::obs::MetricsSnapshot metrics;
};

template <typename Body>
GroupRun run_group(ex::EngineKind kind, Body body) {
  constexpr int kRanks = 12;
  const auto engine = ex::make_engine(kind, kRanks);
  amrio::obs::MetricsRegistry metrics;
  const amrio::obs::Probe probe{nullptr, &metrics};
  GroupRun run;
  std::mutex mu;
  engine->run([&](ex::RankCtx& ctx) {
    const GroupOf g = group_of(ctx.rank());
    std::vector<std::vector<std::byte>> got = body(ctx, g, probe);
    const std::lock_guard<std::mutex> lock(mu);
    run.got[ctx.rank()] = std::move(got);
  });
  run.metrics = metrics.snapshot();
  return run;
}

/// Bytes the 9 non-root members of the three groups ship to their roots.
std::int64_t non_root_bytes() {
  std::int64_t total = 0;
  for (int r = 0; r < 12; ++r)
    if (r != group_of(r).root)
      total += static_cast<std::int64_t>(pattern_of(r).size());
  return total;
}

/// Streams a group gatherv into the root's payload list. The callback must
/// see the members in member order, the root's own payload at its position.
std::vector<std::vector<std::byte>> gather_to_vector(
    ex::RankCtx& ctx, std::vector<std::byte> mine, const GroupOf& g, int tag,
    amrio::obs::Probe probe = {}) {
  std::vector<std::vector<std::byte>> got;
  ex::gatherv_group(
      ctx, std::move(mine), g.members, g.root, tag,
      [&](int member, std::vector<std::byte> payload) {
        EXPECT_EQ(ctx.rank(), g.root);
        ASSERT_LT(got.size(), g.members.size());
        EXPECT_EQ(member, g.members[got.size()]) << "root " << g.root;
        got.push_back(std::move(payload));
      },
      probe);
  return got;
}

}  // namespace

class GroupCollectives : public ::testing::TestWithParam<ex::EngineKind> {};

TEST_P(GroupCollectives, GathervStreamsInMemberOrderAndCounts) {
  auto gather = [](ex::RankCtx& ctx, const GroupOf& g, amrio::obs::Probe pr) {
    return gather_to_vector(ctx, pattern_of(ctx.rank()), g, 61, pr);
  };
  const auto run = run_group(GetParam(), gather);
  ASSERT_EQ(run.got.size(), 12u);
  // Group totals 3+100+197+294+391, 488+585+682+779, 876+973+1070.
  const std::map<int, std::size_t> root_bytes = {{0, 985}, {5, 2534}, {9, 2919}};
  for (const auto& [rank, got] : run.got) {
    const GroupOf g = group_of(rank);
    if (rank != g.root) {
      EXPECT_TRUE(got.empty()) << "rank " << rank;
      continue;
    }
    ASSERT_EQ(got.size(), g.members.size());
    std::size_t total = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], pattern_of(g.members[i])) << "rank " << rank;
      total += got[i].size();
    }
    EXPECT_EQ(total, root_bytes.at(rank));
  }
  // Nine non-root members ship 97*(1+2+3+4+6+7+8+10+11) + 9*3 bytes.
  EXPECT_EQ(run.metrics.counters.at("exec.gatherv.calls"), 3);
  EXPECT_EQ(run.metrics.counters.at("exec.gatherv.messages"), 9);
  EXPECT_EQ(run.metrics.counters.at("exec.gatherv.bytes"), 5071);
}

TEST_P(GroupCollectives, ScattervDeliversAndCountsLikeSpmdEngine) {
  auto scatter = [](ex::RankCtx& ctx, const GroupOf& g, amrio::obs::Probe pr) {
    std::vector<std::vector<std::byte>> payloads;
    if (ctx.rank() == g.root)
      for (int m : g.members) payloads.push_back(pattern_of(m));
    return std::vector<std::vector<std::byte>>{ex::scatterv_group(
        ctx, std::move(payloads), g.members, g.root, 62, pr)};
  };
  const auto run = run_group(GetParam(), scatter);
  ASSERT_EQ(run.got.size(), 12u);
  for (const auto& [rank, got] : run.got) {
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], pattern_of(rank)) << "rank " << rank;
  }
  EXPECT_EQ(run.metrics.counters.at("exec.scatterv.calls"), 3);
  EXPECT_EQ(run.metrics.counters.at("exec.scatterv.messages"), 9);
  EXPECT_EQ(run.metrics.counters.at("exec.scatterv.bytes"), non_root_bytes());
  const auto ref = run_group(ex::EngineKind::kSpmd, scatter);
  EXPECT_EQ(run.got, ref.got);
  EXPECT_EQ(run.metrics.counters, ref.metrics.counters);
}

TEST_P(GroupCollectives, GathervHandsBuffersOver) {
  // Each member records where its payload lives before moving it in. The
  // root keeps its own buffer on every engine; the event engine's in-process
  // mailboxes deliver the senders' allocations too, while the simmpi
  // communicator behind the spmd engine copies.
  std::map<int, const std::byte*> filled;
  std::mutex mu;
  const auto run = run_group(
      GetParam(), [&](ex::RankCtx& ctx, const GroupOf& g, amrio::obs::Probe) {
        std::vector<std::byte> mine = pattern_of(ctx.rank());
        {
          const std::lock_guard<std::mutex> lock(mu);
          filled[ctx.rank()] = mine.data();
        }
        return gather_to_vector(ctx, std::move(mine), g, 63);
      });
  const bool moves = GetParam() != ex::EngineKind::kSpmd;
  for (const auto& [rank, got] : run.got) {
    const GroupOf g = group_of(rank);
    if (rank != g.root) continue;
    ASSERT_EQ(got.size(), g.members.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const int m = g.members[i];
      if (m == rank || moves) {
        EXPECT_EQ(got[i].data(), filled.at(m)) << "member " << m;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, GroupCollectives,
                         ::testing::Values(ex::EngineKind::kSpmd,
                                           ex::EngineKind::kEvent));

TEST(EventEngine, GathervRootVisitsBoundDocumentsInFlight) {
  // The streaming aggregator's memory bound: the root is its group's first
  // rank and the event engine resumes woken ranks before it starts fresh
  // ones, so the root visits member m before member m+2 even serializes —
  // at most about two payloads per group are ever live.
  constexpr int kRanks = 4096;
  constexpr int kGroup = 64;
  enum class Ev { kSerialize, kVisit };
  std::vector<std::pair<Ev, int>> log;  // single-threaded engine: no lock
  ex::EventEngine engine(kRanks);
  engine.run([&](ex::RankCtx& ctx) {
    const int root = ctx.rank() / kGroup * kGroup;
    std::vector<int> members(kGroup);
    std::iota(members.begin(), members.end(), root);
    log.emplace_back(Ev::kSerialize, ctx.rank());
    std::vector<std::byte> doc(256, static_cast<std::byte>(ctx.rank() & 0xff));
    ex::gatherv_group(ctx, std::move(doc), members, root, 7,
                      [&](int member, std::vector<std::byte> payload) {
                        EXPECT_EQ(payload.size(), 256u);
                        log.emplace_back(Ev::kVisit, member);
                      });
    ctx.barrier();
  });
  std::vector<std::size_t> serialized(kRanks, 0);
  std::vector<std::size_t> visited(kRanks, 0);
  int nvisits = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    auto& at = log[i].first == Ev::kSerialize ? serialized : visited;
    at[static_cast<std::size_t>(log[i].second)] = i;
    if (log[i].first == Ev::kVisit) ++nvisits;
  }
  ASSERT_EQ(nvisits, kRanks);
  ASSERT_EQ(log.size(), 2u * kRanks);
  int late = 0;  // members the root visited only after member m+2 serialized
  for (int r = 0; r < kRanks; ++r)
    if (r % kGroup + 2 < kGroup &&
        visited[static_cast<std::size_t>(r)] >
            serialized[static_cast<std::size_t>(r + 2)])
      ++late;
  EXPECT_EQ(late, 0);
}

TEST(EventEngine, DeterministicSchedule) {
  // Fresh ranks start in ascending order and suspend at the first barrier;
  // the last arrival (rank 5) releases it and runs on without yielding, then
  // the woken ranks resume in arrival order. The window order is exactly
  // that, on every run.
  auto order_of = []() {
    std::vector<int> order;
    ex::EventEngine engine(6);
    engine.run([&](ex::RankCtx& ctx) {
      ctx.barrier();
      order.push_back(ctx.rank());  // single-threaded: no race
      ctx.barrier();
    });
    return order;
  };
  const std::vector<int> expected = {5, 0, 1, 2, 3, 4};
  EXPECT_EQ(order_of(), expected);
  EXPECT_EQ(order_of(), expected);
}

TEST(EventEngine, MismatchedCollectivesDeadlockDetected) {
  // Rank 0 calls one barrier more than its peers: once they finish, it waits
  // at a collective no one else will reach.
  ex::EventEngine engine(3);
  try {
    engine.run([](ex::RankCtx& ctx) {
      ctx.barrier();
      if (ctx.rank() == 0) ctx.barrier();
    });
    FAIL() << "expected the mismatched barrier to be reported";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

// ------------------------------------------------- driver byte-identity

namespace {

mc::Params stress_params(mc::FileMode mode, int nprocs, int mif_files) {
  mc::Params params;
  params.nprocs = nprocs;
  params.file_mode = mode;
  params.mif_files = mif_files;
  params.num_dumps = 3;
  params.part_size = 2000;
  params.dataset_growth = 1.07;
  params.meta_size = 32;
  params.avg_num_parts = 1.5;
  return params;
}

void expect_backends_equal(const p::StorageBackend& a,
                           const p::StorageBackend& b) {
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.file_count(), b.file_count());
  const auto paths = a.list("");
  ASSERT_EQ(paths, b.list(""));
  for (const auto& path : paths) EXPECT_EQ(a.size(path), b.size(path)) << path;
}

}  // namespace

class EngineParity
    : public ::testing::TestWithParam<std::tuple<mc::FileMode, int>> {};

/// The stress test of the contention-free substrate: 32+ ranks dumping
/// concurrently (MIF N-to-N, grouped MIF, and SIF open_append chains)
/// through both backends must match the event engine byte for byte.
TEST_P(EngineParity, SpmdMatchesEventOnMemoryBackend) {
  const auto [mode, mif_files] = GetParam();
  const auto params = stress_params(mode, /*nprocs=*/32, mif_files);

  p::MemoryBackend event_be(false);
  ex::EventEngine event(params.nprocs);
  const auto ref = mc::run_macsio(event, params, event_be);

  p::MemoryBackend spmd_be(false);
  ex::SpmdEngine spmd(params.nprocs);
  const auto got = mc::run_macsio(spmd, params, spmd_be);

  EXPECT_EQ(got.total_bytes, ref.total_bytes);
  EXPECT_EQ(got.nfiles, ref.nfiles);
  EXPECT_EQ(got.bytes_per_dump, ref.bytes_per_dump);
  EXPECT_EQ(got.task_bytes, ref.task_bytes);
  expect_backends_equal(spmd_be, event_be);
  EXPECT_EQ(ref.total_bytes, event_be.total_bytes());
  EXPECT_EQ(ref.nfiles, event_be.file_count());
}

TEST_P(EngineParity, SpmdMatchesEventOnPosixBackend) {
  const auto [mode, mif_files] = GetParam();
  const auto params = stress_params(mode, /*nprocs=*/32, mif_files);

  const std::string root_a = amrio::util::make_temp_dir("amrio_exec_event");
  const std::string root_b = amrio::util::make_temp_dir("amrio_exec_spmd");
  {
    p::PosixBackend event_be(root_a);
    ex::EventEngine event(params.nprocs);
    const auto ref = mc::run_macsio(event, params, event_be);

    p::PosixBackend spmd_be(root_b);
    ex::SpmdEngine spmd(params.nprocs);
    const auto got = mc::run_macsio(spmd, params, spmd_be);

    EXPECT_EQ(got.total_bytes, ref.total_bytes);
    EXPECT_EQ(got.nfiles, ref.nfiles);
    expect_backends_equal(spmd_be, event_be);
    for (const auto& path : event_be.list(""))
      EXPECT_EQ(spmd_be.read(path), event_be.read(path)) << path;
  }
  amrio::util::remove_all(root_a);
  amrio::util::remove_all(root_b);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, EngineParity,
    ::testing::Values(std::tuple{mc::FileMode::kMif, 0},    // N-to-N
                      std::tuple{mc::FileMode::kMif, 4},    // grouped batons
                      std::tuple{mc::FileMode::kSif, 0}));  // one shared file

TEST(EngineParity, StoredContentsIdenticalAcrossEngines) {
  const auto params = stress_params(mc::FileMode::kMif, 12, 3);
  p::MemoryBackend event_be(true);
  ex::EventEngine event(params.nprocs);
  mc::run_macsio(event, params, event_be);

  p::MemoryBackend spmd_be(true);
  ex::SpmdEngine spmd(params.nprocs);
  mc::run_macsio(spmd, params, spmd_be);

  ASSERT_EQ(spmd_be.list(""), event_be.list(""));
  for (const auto& path : event_be.list(""))
    EXPECT_EQ(spmd_be.read(path), event_be.read(path)) << path;
}

TEST(EngineParity, RestartReadBackIdenticalAcrossEngines) {
  // run_restart builds one restage plan and shares it (with the interface
  // and codec) read-only across every rank — real threads under spmd. Each
  // shape must read back the same documents on every engine.
  for (const int aggregators : {0, 4}) {
    SCOPED_TRACE("aggregators " + std::to_string(aggregators));
    auto params = stress_params(mc::FileMode::kMif, 16, aggregators ? 0 : 4);
    params.aggregators = aggregators;
    params.fill = mc::FillMode::kReal;
    params.codec = "lossless";
    params.restart = true;
    std::vector<mc::RestartStats> runs;
    for (const auto kind : {ex::EngineKind::kSpmd, ex::EngineKind::kEvent}) {
      p::MemoryBackend be(true);
      const auto engine = ex::make_engine(kind, params.nprocs);
      (void)mc::run_macsio(*engine, params, be);
      runs.push_back(mc::run_restart(*engine, params, be));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].task_bytes, runs[0].task_bytes);
      EXPECT_EQ(runs[i].task_hash, runs[0].task_hash);
      EXPECT_EQ(runs[i].encoded_bytes, runs[0].encoded_bytes);
      EXPECT_EQ(runs[i].requests.size(), runs[0].requests.size());
    }
  }
}

TEST(EngineParity, TraceStreamsIdenticalAcrossEngines) {
  // per-rank sinks + (step, rank) stable merge ⇒ the merged event stream is
  // engine-independent, event by event
  const auto params = stress_params(mc::FileMode::kMif, 16, 0);
  p::MemoryBackend be_a(false);
  p::MemoryBackend be_b(false);
  amrio::iostats::TraceRecorder tr_a;
  amrio::iostats::TraceRecorder tr_b;
  ex::EventEngine event(params.nprocs);
  ex::SpmdEngine spmd(params.nprocs);
  mc::run_macsio(event, params, be_a, &tr_a);
  mc::run_macsio(spmd, params, be_b, &tr_b);

  const auto ea = tr_a.events();
  const auto eb = tr_b.events();
  ASSERT_EQ(ea.size(), eb.size());
  EXPECT_EQ(tr_a.size(), ea.size());
  EXPECT_EQ(tr_a.total_bytes(), tr_b.total_bytes());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].step, eb[i].step) << i;
    EXPECT_EQ(ea[i].level, eb[i].level) << i;
    EXPECT_EQ(ea[i].rank, eb[i].rank) << i;
    EXPECT_EQ(ea[i].path, eb[i].path) << i;
    EXPECT_EQ(ea[i].bytes, eb[i].bytes) << i;
  }
}

TEST(EngineParity, PlotfileWriteIdenticalAcrossEngines) {
  const int nranks = 8;
  std::vector<m::Box> boxes;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 4; ++i)
      boxes.emplace_back(i * 16, j * 16, i * 16 + 15, j * 16 + 15);
  m::BoxArray ba(boxes);
  const auto dm =
      m::DistributionMapping::make(ba, nranks, m::DistributionStrategy::kSfc);
  m::MultiFab mf(ba, dm, 2, 0);
  mf.set_val(1.25);
  const m::Geometry geom(m::Box(0, 0, 63, 63), {0.0, 0.0}, {1.0, 1.0});
  pf::PlotfileSpec spec;
  spec.dir = "engine_plt00000";
  spec.var_names = {"a", "b"};

  p::MemoryBackend event_be(true);
  ex::EventEngine event(nranks);
  const auto ref = pf::write_plotfile(event, event_be, spec, {{geom, &mf}});

  p::MemoryBackend spmd_be(true);
  ex::SpmdEngine spmd(nranks);
  const auto got = pf::write_plotfile(spmd, spmd_be, spec, {{geom, &mf}});

  EXPECT_EQ(got.total_bytes, ref.total_bytes);
  EXPECT_EQ(got.metadata_bytes, ref.metadata_bytes);
  EXPECT_EQ(got.data_bytes, ref.data_bytes);
  EXPECT_EQ(got.nfiles, ref.nfiles);
  EXPECT_EQ(got.rank_level_bytes, ref.rank_level_bytes);
  expect_backends_equal(spmd_be, event_be);
  for (const auto& path : event_be.list(""))
    EXPECT_EQ(spmd_be.read(path), event_be.read(path)) << path;
}

// ----------------------------------------------------- OutFile move state

TEST(OutFile, MoveAssignmentClosesTargetAndEmptiesSource) {
  p::MemoryBackend be(true);
  p::OutFile a(be, "a");
  a.write("aa");
  {
    p::OutFile b(be, "b");
    b.write("bbbb");
    a = std::move(b);  // must close "a" and take over "b"
    EXPECT_EQ(b.path(), "");
    EXPECT_EQ(b.bytes_written(), 0u);
    b.close();  // harmless on moved-from
  }
  EXPECT_EQ(a.path(), "b");
  EXPECT_EQ(a.bytes_written(), 4u);
  a.write("BB");
  a.close();
  EXPECT_EQ(be.size("a"), 2u);
  EXPECT_EQ(be.size("b"), 6u);
}

TEST(OutFile, MoveConstructorEmptiesSource) {
  p::MemoryBackend be(true);
  p::OutFile a(be, "x");
  a.write("123");
  p::OutFile moved(std::move(a));
  EXPECT_EQ(a.path(), "");
  EXPECT_EQ(a.bytes_written(), 0u);
  EXPECT_EQ(moved.path(), "x");
  EXPECT_EQ(moved.bytes_written(), 3u);
  moved.write("45");
  moved.close();
  EXPECT_EQ(be.size("x"), 5u);
}
