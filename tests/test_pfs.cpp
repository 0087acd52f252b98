/// Tests for storage backends (memory/POSIX parity, counting mode, append)
/// and the discrete-event parallel filesystem simulator.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "pfs/backend.hpp"
#include "pfs/simfs.hpp"
#include "pfs/timeline.hpp"
#include "util/assert.hpp"
#include "util/path.hpp"

namespace p = amrio::pfs;

namespace {
std::span<const std::byte> as_bytes(const std::string& s) {
  return std::as_bytes(std::span<const char>(s.data(), s.size()));
}
}  // namespace

// --------------------------------------------------------------- backends

TEST(MemoryBackend, WriteReadRoundTrip) {
  p::MemoryBackend be(true);
  {
    p::OutFile f(be, "dir/a.txt");
    f.write("hello ");
    f.write("world");
  }
  EXPECT_TRUE(be.exists("dir/a.txt"));
  EXPECT_EQ(be.size("dir/a.txt"), 11u);
  const auto bytes = be.read("dir/a.txt");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
            "hello world");
}

TEST(MemoryBackend, CountingModeTracksSizesOnly) {
  p::MemoryBackend be(false);
  {
    p::OutFile f(be, "big.bin");
    std::vector<std::byte> chunk(1 << 20);
    for (int i = 0; i < 10; ++i) f.write(chunk);
  }
  EXPECT_EQ(be.size("big.bin"), 10u << 20);
  EXPECT_THROW(be.read("big.bin"), std::runtime_error);
}

TEST(MemoryBackend, CreateTruncates) {
  p::MemoryBackend be(true);
  { p::OutFile f(be, "x"); f.write("aaaa"); }
  { p::OutFile f(be, "x"); f.write("bb"); }
  EXPECT_EQ(be.size("x"), 2u);
}

TEST(MemoryBackend, AppendExtends) {
  p::MemoryBackend be(true);
  { p::OutFile f(be, "x"); f.write("aaaa"); }
  { p::OutFile f(be, "x", p::OpenMode::kAppend); f.write("bb"); }
  EXPECT_EQ(be.size("x"), 6u);
  const auto bytes = be.read("x");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
            "aaaabb");
}

TEST(MemoryBackend, ListFiltersByPrefixSorted) {
  p::MemoryBackend be(false);
  for (const char* name : {"plt00000/Header", "plt00000/Level_0/Cell_H",
                           "plt00020/Header", "other/file"}) {
    p::OutFile f(be, name);
    f.write("x");
  }
  const auto all = be.list("");
  EXPECT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(be.list("plt00000").size(), 2u);
  EXPECT_EQ(be.list("plt").size(), 3u);
}

TEST(MemoryBackend, BadHandleThrows) {
  p::MemoryBackend be(true);
  EXPECT_THROW(be.write(999, as_bytes("x")), std::runtime_error);
  EXPECT_THROW(be.close(999), std::runtime_error);
  EXPECT_THROW(be.size("missing"), std::runtime_error);
}

TEST(MemoryBackend, ConcurrentWritersSafe) {
  p::MemoryBackend be(false);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&be, t] {
      for (int i = 0; i < 50; ++i) {
        p::OutFile f(be, "t" + std::to_string(t) + "_" + std::to_string(i));
        f.write("data");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(be.file_count(), 400u);
  EXPECT_EQ(be.total_bytes(), 1600u);
}

TEST(MemoryBackend, ReadRangeSlicesExactly) {
  p::MemoryBackend be(true);
  { p::OutFile f(be, "dir/a.txt"); f.write("0123456789"); }
  const auto slice = be.read_range("dir/a.txt", 2, 5);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(slice.data()),
                        slice.size()),
            "23456");
  EXPECT_TRUE(be.read_range("dir/a.txt", 10, 0).empty());
  EXPECT_THROW(be.read_range("dir/a.txt", 6, 5), std::runtime_error);
  EXPECT_THROW(be.read_range("dir/missing", 0, 1), std::runtime_error);
  p::MemoryBackend counting(false);
  { p::OutFile f(counting, "dir/a.txt"); f.write("0123456789"); }
  EXPECT_THROW(counting.read_range("dir/a.txt", 0, 1), std::runtime_error);
}

TEST(PosixBackend, ReadRangeMatchesBaseImplementation) {
  const std::string root = amrio::util::make_temp_dir("amrio_pfs_range");
  p::PosixBackend posix(root);
  { p::OutFile f(posix, "a/data.bin"); f.write("abcdefghij"); }
  // the overridden ranged read agrees with the read-everything-and-slice
  // default every backend inherits
  const auto ranged = posix.read_range("a/data.bin", 3, 4);
  const auto whole = posix.read("a/data.bin");
  EXPECT_EQ(ranged, std::vector<std::byte>(whole.begin() + 3,
                                           whole.begin() + 7));
  EXPECT_THROW(posix.read_range("a/data.bin", 8, 5), std::runtime_error);
  amrio::util::remove_all(root);
}

TEST(PosixBackend, ParityWithMemoryBackend) {
  const std::string root = amrio::util::make_temp_dir("amrio_pfs_test");
  p::PosixBackend posix(root);
  p::MemoryBackend mem(true);
  auto scenario = [](p::StorageBackend& be) {
    { p::OutFile f(be, "a/b/data.bin"); f.write("0123456789"); }
    { p::OutFile f(be, "a/meta"); f.write("m"); }
    { p::OutFile f(be, "a/meta", p::OpenMode::kAppend); f.write("n"); }
  };
  scenario(posix);
  scenario(mem);
  EXPECT_EQ(posix.list(""), mem.list(""));
  for (const auto& path : mem.list("")) {
    EXPECT_EQ(posix.size(path), mem.size(path)) << path;
    EXPECT_EQ(posix.read(path), mem.read(path)) << path;
  }
  amrio::util::remove_all(root);
}

// ------------------------------------------------------------------ simfs

TEST(SimFs, SingleWriteTakesBytesOverBandwidth) {
  p::SimFsConfig cfg;
  cfg.n_ost = 4;
  cfg.ost_bandwidth = 1e9;
  cfg.client_bandwidth = 1e9;
  cfg.mds_latency = 0.0;
  p::SimFs fs(cfg);
  const auto res = fs.run({p::IoRequest{0, 0.0, "f", 1'000'000'000}});
  ASSERT_EQ(res.size(), 1u);
  EXPECT_NEAR(res[0].end - res[0].open_end, 1.0, 1e-9);
}

TEST(SimFs, MdsSerializesCreates) {
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.01;
  p::SimFs fs(cfg);
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 10; ++i) reqs.push_back({i, 0.0, "f" + std::to_string(i), 0});
  const auto res = fs.run(reqs);
  // zero-byte creates: total makespan = 10 * mds_latency, strictly serialized
  double max_end = 0.0;
  for (const auto& r : res) max_end = std::max(max_end, r.end);
  EXPECT_NEAR(max_end, 0.1, 1e-9);
}

TEST(SimFs, ContentionDoublesTimeOnSharedOst) {
  p::SimFsConfig cfg;
  cfg.n_ost = 1;  // force both files onto the same OST
  cfg.ost_bandwidth = 1e9;
  cfg.client_bandwidth = 1e9;
  cfg.mds_latency = 0.0;
  p::SimFs fs(cfg);
  const std::uint64_t bytes = 500'000'000;
  const auto res = fs.run({{0, 0.0, "a", bytes}, {1, 0.0, "b", bytes}});
  double makespan = 0.0;
  for (const auto& r : res) makespan = std::max(makespan, r.end);
  EXPECT_NEAR(makespan, 1.0, 1e-6);  // 1 GB through 1 GB/s OST
}

TEST(SimFs, DisjointOstsRunInParallel) {
  p::SimFsConfig cfg;
  cfg.n_ost = 64;  // plenty of OSTs: hash collisions unlikely for two files
  cfg.ost_bandwidth = 1e9;
  cfg.client_bandwidth = 1e9;
  cfg.mds_latency = 0.0;
  p::SimFs fs(cfg);
  // find two files on different OSTs
  std::string f1 = "file_a";
  std::string f2;
  for (char c = 'a'; c <= 'z'; ++c) {
    f2 = std::string("file_") + c + "x";
    if (fs.ost_of(f2) != fs.ost_of(f1)) break;
  }
  ASSERT_NE(fs.ost_of(f1), fs.ost_of(f2));
  const std::uint64_t bytes = 500'000'000;
  const auto res = fs.run({{0, 0.0, f1, bytes}, {1, 0.0, f2, bytes}});
  double makespan = 0.0;
  for (const auto& r : res) makespan = std::max(makespan, r.end);
  EXPECT_NEAR(makespan, 0.5, 1e-6);
}

TEST(SimFs, ClientBandwidthCaps) {
  p::SimFsConfig cfg;
  cfg.n_ost = 8;
  cfg.ost_bandwidth = 10e9;
  cfg.client_bandwidth = 1e9;  // NIC is the bottleneck
  cfg.mds_latency = 0.0;
  p::SimFs fs(cfg);
  const auto res = fs.run({{0, 0.0, "f", 2'000'000'000}});
  EXPECT_NEAR(res[0].end, 2.0, 1e-6);
}

TEST(SimFs, DeterministicForSeed) {
  p::SimFsConfig cfg;
  cfg.variability_sigma = 0.3;
  cfg.seed = 42;
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 20; ++i)
    reqs.push_back({i % 4, 0.1 * i, "f" + std::to_string(i), 1'000'000});
  const auto a = p::SimFs(cfg).run(reqs);
  const auto b = p::SimFs(cfg).run(reqs);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a[i].end, b[i].end);
  cfg.seed = 43;
  const auto c = p::SimFs(cfg).run(reqs);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].end != c[i].end) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(SimFs, VariabilityPreservesMeanRoughly) {
  p::SimFsConfig base;
  base.n_ost = 16;
  base.mds_latency = 0.0;
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 200; ++i)
    reqs.push_back({i % 8, 0.0, "f" + std::to_string(i), 4'000'000});
  const auto clean = p::SimFs(base).run(reqs);
  base.variability_sigma = 0.2;
  const auto noisy = p::SimFs(base).run(reqs);
  double clean_total = 0.0;
  double noisy_total = 0.0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    clean_total += clean[i].duration();
    noisy_total += noisy[i].duration();
  }
  EXPECT_NEAR(noisy_total / clean_total, 1.0, 0.15);
}

TEST(SimFs, SubmitTimeTiesServedInClientFileOrder) {
  // The documented guarantee staged drain replays rely on: requests that tie
  // on submit_time are serviced in (client, file) order, independent of the
  // order they appear in the request list.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.01;
  std::vector<p::IoRequest> forward;
  for (int c = 0; c < 3; ++c)
    for (const char* f : {"alpha", "beta"})
      forward.push_back({c, 1.0, std::string("dir/") + f, 1000});
  std::vector<p::IoRequest> reversed(forward.rbegin(), forward.rend());

  const auto res_fwd = p::SimFs(cfg).run(forward);
  const auto res_rev = p::SimFs(cfg).run(reversed);

  // same (client, file) pair gets the same service times either way
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const std::size_t j = forward.size() - 1 - i;  // its position in reversed
    EXPECT_DOUBLE_EQ(res_fwd[i].open_start, res_rev[j].open_start);
    EXPECT_DOUBLE_EQ(res_fwd[i].end, res_rev[j].end);
  }
  // and the MDS order itself is (client, file): client 0 "alpha" first
  for (std::size_t i = 1; i < forward.size(); ++i)
    EXPECT_GT(res_fwd[i].open_start, res_fwd[i - 1].open_start);
}

TEST(SimFs, ReadTiesOnASharedExtentSerializeInClientFileOrder) {
  // Two clients reading the same OST extent (a restart of a shared file)
  // must serialize per the documented (client, file) tie order, independent
  // of request-list order — the guarantee that makes engine-generated
  // restart request streams replay identically (the engine-parity side is
  // pinned by tests/test_restart.cpp over EventEngine and SpmdEngine).
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.01;
  std::vector<p::IoRequest> forward;
  for (int c = 0; c < 2; ++c)
    forward.push_back(
        {c, 1.0, "data/shared_restart", 4'000'000, p::kTierPfs, p::kOpRead});
  std::vector<p::IoRequest> reversed(forward.rbegin(), forward.rend());

  const auto res_fwd = p::SimFs(cfg).run(forward);
  const auto res_rev = p::SimFs(cfg).run(reversed);

  // client 0 opens first; both reads hit the same stripe set, so the later
  // client queues behind the earlier one's chunks on the OST FIFO
  EXPECT_LT(res_fwd[0].open_start, res_fwd[1].open_start);
  EXPECT_LT(res_fwd[0].end, res_fwd[1].end);
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const std::size_t j = forward.size() - 1 - i;
    EXPECT_DOUBLE_EQ(res_fwd[i].open_start, res_rev[j].open_start);
    EXPECT_DOUBLE_EQ(res_fwd[i].end, res_rev[j].end);
  }
  for (const auto& res : res_fwd) {
    EXPECT_EQ(res.op, p::kOpRead);
    EXPECT_EQ(res.tier, p::kTierPfs);
    EXPECT_DOUBLE_EQ(res.end, res.pfs_end);  // direct reads: one timeline
  }
}

TEST(SimFs, ReadsAndWritesShareTheOstFifos) {
  // A read of a file contends with a concurrent write to the same stripe
  // set: the second request's chunks queue behind the first's.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.0;
  std::vector<p::IoRequest> alone = {
      {0, 0.0, "data/ckpt", 8'000'000, p::kTierPfs, p::kOpRead}};
  const auto solo = p::SimFs(cfg).run(alone);
  std::vector<p::IoRequest> contended = {
      {0, 0.0, "data/ckpt", 8'000'000, p::kTierPfs, p::kOpRead},
      {1, 0.0, "data/ckpt", 8'000'000, p::kTierPfs, p::kOpWrite}};
  const auto both = p::SimFs(cfg).run(contended);
  EXPECT_GT(both[0].end, solo[0].end);  // the write stole OST service time
}

TEST(SimFs, PrefetchGatesTheBbReadAndBbOffCollapsesToDirect) {
  // BB on: the node-local read of a prefetched extent starts only after the
  // prefetch lands, then runs at read_bandwidth off the node.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.0;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 1;
  cfg.bb.ranks_per_node = 8;
  cfg.bb.drain_bandwidth = 0.5e9;
  cfg.bb.read_bandwidth = 10.0e9;
  const std::uint64_t bytes = 1'000'000'000;
  std::vector<p::IoRequest> reqs = {
      {0, 0.0, "data/ckpt", bytes, p::kTierBurstBuffer, p::kOpPrefetch},
      {0, 0.0, "data/ckpt", bytes, p::kTierBurstBuffer, p::kOpRead}};
  const auto res = p::SimFs(cfg).run(reqs);
  // prefetch: OST→node at min(drain_bw, ost_bw) = 0.5e9 → 2s; the read
  // waits for it, then takes bytes/read_bw = 0.1s node-locally
  EXPECT_NEAR(res[0].end, 2.0, 1e-9);
  EXPECT_NEAR(res[1].end, 2.1, 1e-9);
  EXPECT_EQ(res[1].tier, p::kTierBurstBuffer);

  // BB off: the same tagged workload collapses onto direct PFS reads —
  // exactly like the write path's tier-tag contract
  p::SimFsConfig off = cfg;
  off.bb.enabled = false;
  const auto collapsed = p::SimFs(off).run(reqs);
  std::vector<p::IoRequest> direct = {
      {0, 0.0, "data/ckpt", bytes, p::kTierPfs, p::kOpRead},
      {0, 0.0, "data/ckpt", bytes, p::kTierPfs, p::kOpRead}};
  const auto reference = p::SimFs(off).run(direct);
  for (std::size_t i = 0; i < collapsed.size(); ++i) {
    EXPECT_EQ(collapsed[i].tier, p::kTierPfs);
    EXPECT_DOUBLE_EQ(collapsed[i].end, reference[i].end);
  }
}

TEST(SimFs, SharedFileReadsConsumeTheStagedPoolInFifoOrder) {
  // A non-aggregated prefetched restart of a shared dump file: each rank
  // prefetches its own slice and reads it back. With one prefetch stream
  // the two prefetches serialize (ends 2s and 4s); a read only starts once
  // the key's staged pool holds its size, and reads consume FIFO — so the
  // first read pairs with the first slice landing (2s) and the second must
  // wait for the second (4s), never getting bytes before they are resident.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.0;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 1;
  cfg.bb.ranks_per_node = 8;
  cfg.bb.drain_bandwidth = 0.5e9;
  cfg.bb.prefetch_concurrency = 1;
  cfg.bb.read_bandwidth = 10.0e9;
  const std::uint64_t bytes = 1'000'000'000;
  std::vector<p::IoRequest> reqs = {
      {0, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpPrefetch},
      {0, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpRead},
      {1, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpPrefetch},
      {1, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpRead}};
  const auto res = p::SimFs(cfg).run(reqs);
  EXPECT_NEAR(res[0].end, 2.0, 1e-6);  // slices serialize on the one stream
  EXPECT_NEAR(res[2].end, 4.0, 1e-6);
  EXPECT_NEAR(res[1].end, 2.1, 1e-6);  // first read: first slice + 0.1s
  EXPECT_NEAR(res[3].end, 4.1, 1e-6);  // second read: waits for its slice
}

TEST(SimFs, ReadsInterleaveWithPrefetchWavesUnderTightCapacity) {
  // The staging area holds 1 GB but the restart image is 1.2 GB: the second
  // prefetch stalls on capacity until the first read evicts its slice —
  // reads interleave with prefetch waves instead of deadlocking.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.0;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 1;
  cfg.bb.ranks_per_node = 8;
  cfg.bb.capacity = 1'000'000'000;
  const std::uint64_t bytes = 600'000'000;
  std::vector<p::IoRequest> reqs = {
      {0, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpPrefetch},
      {0, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpRead},
      {1, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpPrefetch},
      {1, 0.0, "data/shared", bytes, p::kTierBurstBuffer, p::kOpRead}};
  const auto res = p::SimFs(cfg).run(reqs);
  for (const auto& r : res) {
    EXPECT_GT(r.end, 0.0);  // everything was actually served
    EXPECT_GT(r.bandwidth(), 0.0);
  }
  // the second prefetch could only start after the first read freed space
  EXPECT_GE(res[2].pfs_end, res[1].end);
  EXPECT_GE(res[3].end, res[2].end);  // and the second read after it landed

  // prefetch reservations over capacity with nothing to evict between
  // waves can never drain — that must fail loudly, not return zeros
  std::vector<p::IoRequest> stuck = {
      {0, 0.0, "data/e0", bytes, p::kTierBurstBuffer, p::kOpPrefetch},
      {1, 0.0, "data/e1", bytes, p::kTierBurstBuffer, p::kOpPrefetch}};
  EXPECT_THROW(p::SimFs(cfg).run(stuck), amrio::ContractViolation);
}

TEST(SimFs, UnmatchedBbReadNeverStealsReservedCapacity) {
  // A BB-tier read with no prefetch in the batch (plotfile-style restart
  // reads) must not evict other requests' staged bytes: if it did, the
  // owning drain's occupancy release would underflow and permanently fill
  // the node, silently stalling every later absorb.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.0;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 1;
  cfg.bb.ranks_per_node = 8;
  cfg.bb.capacity = 1'000'000'000;
  std::vector<p::IoRequest> reqs = {
      {0, 0.0, "data/w0", 600'000'000, p::kTierBurstBuffer, p::kOpWrite},
      {1, 0.0, "data/never_prefetched", 600'000'000, p::kTierBurstBuffer,
       p::kOpRead},
      {2, 5.0, "data/w1", 500'000'000, p::kTierBurstBuffer, p::kOpWrite}};
  const auto res = p::SimFs(cfg).run(reqs);
  // the late write absorbs normally once the first drain freed its space
  EXPECT_GT(res[2].end, res[2].open_end);  // it actually transferred
  EXPECT_NEAR(res[2].end, 5.0 + 500'000'000 / cfg.bb.write_bandwidth, 1e-6);
  EXPECT_GE(res[2].pfs_end, res[2].end);  // and drained
  // the unmatched read itself is served node-locally
  EXPECT_NEAR(res[1].end, 600'000'000 / cfg.bb.read_bandwidth, 1e-6);
}

TEST(SimFs, PrefetchStreamsAreBoundedPerNode) {
  // 3 extents, 1 prefetch stream: they serialize on the node's stream pool
  // even though the OSTs could serve them concurrently.
  p::SimFsConfig cfg;
  cfg.mds_latency = 0.0;
  cfg.n_ost = 8;
  cfg.bb.enabled = true;
  cfg.bb.nodes = 1;
  cfg.bb.ranks_per_node = 8;
  cfg.bb.drain_bandwidth = 1.0e9;
  cfg.bb.prefetch_concurrency = 1;
  // pick extent names hashing to three distinct OSTs, so the wide sweep
  // below is genuinely OST-parallel
  p::SimFs probe(cfg);
  std::vector<std::string> names;
  std::vector<int> osts;
  for (int i = 0; names.size() < 3; ++i) {
    const std::string candidate = "data/ext" + std::to_string(i);
    const int ost = probe.ost_of(candidate);
    if (std::find(osts.begin(), osts.end(), ost) == osts.end()) {
      names.push_back(candidate);
      osts.push_back(ost);
    }
  }
  std::vector<p::IoRequest> reqs;
  for (int i = 0; i < 3; ++i)
    reqs.push_back({i, 0.0, names[static_cast<std::size_t>(i)], 1'000'000'000,
                    p::kTierBurstBuffer, p::kOpPrefetch});
  const auto res = p::SimFs(cfg).run(reqs);
  double last = 0.0;
  for (const auto& r : res) last = std::max(last, r.end);
  EXPECT_NEAR(last, 3.0, 1e-6);  // 1s each, strictly serialized

  cfg.bb.prefetch_concurrency = 3;
  const auto wide = p::SimFs(cfg).run(reqs);
  double wide_last = 0.0;
  for (const auto& r : wide) wide_last = std::max(wide_last, r.end);
  EXPECT_LT(wide_last, 1.5);  // distinct files hash over 8 OSTs: parallel
}

TEST(SimFs, InvalidConfigRejected) {
  p::SimFsConfig cfg;
  cfg.n_ost = 0;
  EXPECT_THROW(p::SimFs{cfg}, amrio::ContractViolation);
  cfg = {};
  cfg.stripe_count = 99;  // > n_ost
  EXPECT_THROW(p::SimFs{cfg}, amrio::ContractViolation);
}

// --------------------------------------------------------------- timeline

TEST(Timeline, BandwidthBinsConserveBytes) {
  std::vector<p::IoResult> results;
  p::IoResult r;
  r.open_start = 0.0;
  r.open_end = 0.0;
  r.end = 1.0;
  r.bytes = 1000;
  results.push_back(r);
  r.open_start = 2.0;
  r.open_end = 2.0;
  r.end = 3.0;
  r.bytes = 3000;
  results.push_back(r);
  const auto bins = p::bandwidth_timeline(results, 30);
  double total = 0.0;
  for (const auto& b : bins) total += b.bytes;
  EXPECT_NEAR(total, 4000.0, 1.0);
}

TEST(Timeline, BurstStatsDutyCycle) {
  std::vector<p::IoResult> results;
  p::IoResult r;
  r.open_start = 0.0;
  r.open_end = 0.0;
  r.end = 1.0;
  r.bytes = 100;
  results.push_back(r);
  r.open_start = 9.0;
  r.open_end = 9.0;
  r.end = 10.0;
  results.push_back(r);
  const auto st = p::burst_stats(results);
  EXPECT_DOUBLE_EQ(st.makespan, 10.0);
  EXPECT_DOUBLE_EQ(st.busy_time, 2.0);
  EXPECT_NEAR(st.duty_cycle, 0.2, 1e-12);
}

TEST(Timeline, OverlappingBurstsFromTwoTiersNotDoubleCounted) {
  // A BB-tier absorb burst and a PFS-tier direct burst overlap in time;
  // duty_cycle must count the overlapped interval once (union, not sum).
  std::vector<p::IoResult> results;
  p::IoResult bb;
  bb.open_start = 0.0;
  bb.open_end = 0.0;
  bb.end = 3.0;  // perceived absorb window
  bb.pfs_end = 6.0;
  bb.tier = p::kTierBurstBuffer;
  bb.bytes = 100;
  results.push_back(bb);
  p::IoResult direct;
  direct.open_start = 2.0;  // overlaps [2,3) with the absorb burst
  direct.open_end = 2.0;
  direct.end = 5.0;
  direct.pfs_end = 5.0;
  direct.tier = p::kTierPfs;
  direct.bytes = 100;
  results.push_back(direct);

  const auto st = p::burst_stats(results);
  EXPECT_DOUBLE_EQ(st.makespan, 5.0);
  EXPECT_DOUBLE_EQ(st.busy_time, 5.0);  // union of [0,3) and [2,5), not 6
  EXPECT_DOUBLE_EQ(st.duty_cycle, 1.0);

  // fully disjoint two-tier bursts accumulate, with an idle gap between
  results[1].open_start = 4.0;
  results[1].open_end = 4.0;
  results[1].end = 6.0;
  const auto gap = p::burst_stats(results);
  EXPECT_DOUBLE_EQ(gap.busy_time, 5.0);  // [0,3) + [4,6)
  EXPECT_NEAR(gap.duty_cycle, 5.0 / 6.0, 1e-12);
}
