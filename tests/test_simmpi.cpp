/// Tests for the simulated MPI layer: barrier and gather over varying rank
/// counts, point-to-point messaging, and failure propagation semantics.

#include <gtest/gtest.h>

#include <atomic>

#include "simmpi/comm.hpp"

namespace sm = amrio::simmpi;

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, BarrierCompletes) {
  const int n = GetParam();
  std::atomic<int> count{0};
  sm::run_spmd(n, [&](sm::Comm& comm) {
    count.fetch_add(1);
    comm.barrier();
    // after the barrier every rank must have incremented
    EXPECT_EQ(count.load(), n);
  });
}

TEST_P(CollectiveTest, GatherDeliversAtRootOnly) {
  const int n = GetParam();
  sm::run_spmd(n, [&](sm::Comm& comm) {
    const auto out = comm.gather(static_cast<std::int64_t>(comm.rank() * 10), 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(out.size(), static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], r * 10);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16));

// ------------------------------------------------------------- messaging

TEST(SendRecv, RingPassesToken) {
  const int n = 6;
  sm::run_spmd(n, [&](sm::Comm& comm) {
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() + n - 1) % n;
    if (comm.rank() == 0) {
      const std::int64_t token = 123;
      comm.send(std::span<const std::int64_t>(&token, 1), next, 5);
      const auto back = comm.recv<std::int64_t>(prev, 5);
      ASSERT_EQ(back.size(), 1u);
      EXPECT_EQ(back[0], 123 + n - 1);
    } else {
      const auto got = comm.recv<std::int64_t>(prev, 5);
      const std::int64_t token = got.at(0) + 1;
      comm.send(std::span<const std::int64_t>(&token, 1), next, 5);
    }
  });
}

TEST(SendRecv, TagsKeepMessagesSeparate) {
  sm::run_spmd(2, [&](sm::Comm& comm) {
    if (comm.rank() == 0) {
      const std::int64_t a = 1;
      const std::int64_t b = 2;
      comm.send(std::span<const std::int64_t>(&a, 1), 1, 100);
      comm.send(std::span<const std::int64_t>(&b, 1), 1, 200);
    } else {
      // receive in reverse tag order
      EXPECT_EQ(comm.recv<std::int64_t>(0, 200).at(0), 2);
      EXPECT_EQ(comm.recv<std::int64_t>(0, 100).at(0), 1);
    }
  });
}

TEST(SendRecv, FifoWithinTag) {
  sm::run_spmd(2, [&](sm::Comm& comm) {
    if (comm.rank() == 0) {
      for (std::int64_t i = 0; i < 10; ++i)
        comm.send(std::span<const std::int64_t>(&i, 1), 1, 7);
    } else {
      for (std::int64_t i = 0; i < 10; ++i)
        EXPECT_EQ(comm.recv<std::int64_t>(0, 7).at(0), i);
    }
  });
}

TEST(SendRecv, RecvTimesOutWhenNoMessage) {
  sm::run_spmd(2, [&](sm::Comm& comm) {
    if (comm.rank() == 1) {
      EXPECT_THROW(comm.recv<std::int64_t>(0, 9, /*timeout_sec=*/0.05),
                   sm::RecvTimeout);
    }
    comm.barrier();
  });
}

TEST(SendRecv, EmptyMessageAllowed) {
  sm::run_spmd(2, [&](sm::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(std::span<const double>(), 1, 3);
    } else {
      EXPECT_TRUE(comm.recv<double>(0, 3).empty());
    }
  });
}

// --------------------------------------------------------------- failure

TEST(Failure, ExceptionPropagatesToCaller) {
  EXPECT_THROW(
      sm::run_spmd(4,
                   [](sm::Comm& comm) {
                     if (comm.rank() == 2) throw std::runtime_error("rank 2 died");
                     comm.barrier();
                   }),
      std::runtime_error);
}

TEST(Failure, SurvivorsReleasedFromBarrier) {
  // If the aborting semantics were wrong this test would hang rather than
  // fail; run_spmd must return (with the original exception).
  try {
    sm::run_spmd(4, [](sm::Comm& comm) {
      if (comm.rank() == 0) throw std::logic_error("boom");
      comm.barrier();  // survivors must receive CommAborted here
      comm.barrier();
    });
    FAIL() << "expected exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
}

TEST(Failure, SingleRankRunsInline) {
  int calls = 0;
  sm::run_spmd(1, [&](sm::Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
    comm.barrier();
    EXPECT_EQ(comm.gather(5.0, 0), std::vector<double>{5.0});
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Failure, InvalidRankCountRejected) {
  EXPECT_THROW(sm::run_spmd(0, [](sm::Comm&) {}), amrio::ContractViolation);
}
