// Tests of the message-passing layer, run against both transport
// backends (thread ranks and forked socket-connected processes) through
// the public comm::Transport interface.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <tuple>

#include "comm/transport.hpp"
#include "transport_test_util.hpp"

namespace ember::comm {
namespace {

using test::kBothKinds;
using test::make;

class Transports : public ::testing::TestWithParam<TransportKind> {};

TEST_P(Transports, PointToPointRoundTrip) {
  const auto ctx = make(GetParam(), 2);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      std::vector<double> data{1.0, 2.0, 3.5};
      c.send(1, 7, data);
      const auto back = c.recv<double>(1, 8);
      ASSERT_EQ(back.size(), 3u);
      EXPECT_DOUBLE_EQ(back[2], 7.0);
    } else {
      auto data = c.recv<double>(0, 7);
      for (auto& v : data) v *= 2.0;
      c.send(0, 8, data);
    }
  });
}

TEST_P(Transports, TagsAreMatchedNotJustOrder) {
  // Send two messages with different tags; receive them out of order.
  const auto ctx = make(GetParam(), 2);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      c.send_value(1, 1, 111);
      c.send_value(1, 2, 222);
    } else {
      EXPECT_EQ(c.recv_value<int>(0, 2), 222);
      EXPECT_EQ(c.recv_value<int>(0, 1), 111);
    }
  });
}

TEST_P(Transports, SameTagPreservesFifoPerSource) {
  const auto ctx = make(GetParam(), 2);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send_value(1, 3, i);
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv_value<int>(0, 3), i);
    }
  });
}

TEST_P(Transports, SelfSendWorks) {
  const auto ctx = make(GetParam(), 1);
  ctx->run([](Transport& c) {
    c.send_value(0, 5, 3.25);
    EXPECT_DOUBLE_EQ(c.recv_value<double>(0, 5), 3.25);
  });
}

TEST_P(Transports, AnySourceRecvDeliversFromEveryRank) {
  const auto ctx = make(GetParam(), 4);
  ctx->run([](Transport& c) {
    if (c.rank() == 0) {
      long seen_mask = 0;
      for (int i = 0; i < c.size() - 1; ++i) {
        const auto [source, payload] = c.recv_bytes_any(9);
        EXPECT_EQ(from_bytes<int>(payload), source * 100);
        seen_mask |= 1L << source;
      }
      EXPECT_EQ(seen_mask, 0b1110);
    } else {
      c.send_value(0, 9, c.rank() * 100);
    }
  });
}

TEST_P(Transports, KindAndSizeAreReported) {
  const auto ctx = make(GetParam(), 2);
  EXPECT_EQ(ctx->kind(), GetParam());
  EXPECT_EQ(ctx->size(), 2);
  const auto kind = GetParam();
  ctx->run([kind](Transport& c) {
    EXPECT_EQ(c.kind(), kind);
    EXPECT_EQ(c.size(), 2);
  });
}

TEST_P(Transports, RunGatherShipsRootResult) {
  const auto ctx = make(GetParam(), 3);
  const auto bytes = ctx->run_gather([](Transport& c) {
    const double sum = c.allreduce_sum(static_cast<double>(c.rank()));
    if (c.rank() != 0) return std::vector<std::byte>{};
    return to_bytes(sum);
  });
  EXPECT_DOUBLE_EQ(from_bytes<double>(bytes), 3.0);
}

TEST_P(Transports, ExceptionsPropagateFromRanks) {
  const auto ctx = make(GetParam(), 2);
  EXPECT_THROW(ctx->run([](Transport& c) {
                 if (c.rank() == 1) throw Error("rank 1 failed");
                 // Rank 0 must not deadlock waiting: no communication here.
               }),
               Error);
}

INSTANTIATE_TEST_SUITE_P(Comm, Transports, ::testing::ValuesIn(kBothKinds),
                         test::kind_name);

class CommCollectives
    : public ::testing::TestWithParam<std::tuple<TransportKind, int>> {
 protected:
  [[nodiscard]] TransportKind kind() const { return std::get<0>(GetParam()); }
  [[nodiscard]] int ranks() const { return std::get<1>(GetParam()); }
};

TEST_P(CommCollectives, AllreduceSumAndMax) {
  const int n = ranks();
  const auto ctx = make(kind(), n);
  ctx->run([n](Transport& c) {
    const double sum = c.allreduce_sum(static_cast<double>(c.rank() + 1));
    EXPECT_DOUBLE_EQ(sum, n * (n + 1) / 2.0);
    const long lsum = c.allreduce_sum(static_cast<long>(2));
    EXPECT_EQ(lsum, 2L * n);
    const double mx = c.allreduce_max(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(mx, n - 1.0);
    EXPECT_TRUE(c.allreduce_or(c.rank() == n - 1));
    EXPECT_FALSE(c.allreduce_or(false));
  });
}

TEST_P(CommCollectives, RepeatedReductionsStayConsistent) {
  const int n = ranks();
  const auto ctx = make(kind(), n);
  ctx->run([n](Transport& c) {
    for (int round = 0; round < 50; ++round) {
      const double sum = c.allreduce_sum(static_cast<double>(round));
      EXPECT_DOUBLE_EQ(sum, static_cast<double>(round) * n);
    }
  });
}

TEST_P(CommCollectives, AllreduceSumFoldsInRankOrder) {
  // Values whose double sum depends on the order of addition: folded in
  // rank order, 1 is absorbed by 1e16 and the total is 0; folded in
  // reverse it survives as 1. Ranks arrive in reverse order, and every
  // backend must still return the rank-order fold, bit for bit.
  const int n = ranks();
  const auto value = [](int r) {
    constexpr double kValues[] = {1.0, 1e16, -1e16};
    return r < 3 ? kValues[r] : 0.0;
  };
  double expected = value(0);
  for (int r = 1; r < n; ++r) expected += value(r);
  const auto ctx = make(kind(), n);
  ctx->run([n, value, expected](Transport& c) {
    const int late = n - 1 - c.rank();
    std::this_thread::sleep_for(std::chrono::milliseconds(20 * late));
    EXPECT_EQ(c.allreduce_sum(value(c.rank())), expected);
  });
}

TEST_P(CommCollectives, BarrierWaitsForTheLastRank) {
  // No shared memory across socket ranks, so observe the barrier through
  // time: the last rank arrives 50 ms late, and nobody may leave before.
  const int n = ranks();
  const auto ctx = make(kind(), n);
  ctx->run([n](Transport& c) {
    using Clock = std::chrono::steady_clock;
    if (c.rank() == n - 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      c.barrier();
      return;
    }
    const auto start = Clock::now();
    c.barrier();
    EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(40));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Comm, CommCollectives,
    ::testing::Combine(::testing::ValuesIn(kBothKinds),
                       ::testing::Values(1, 2, 3, 4, 8)),
    test::kind_size_name);

// Thread-only: observes rank progress through a shared atomic, which
// only exists when the ranks share an address space.
class ThreadCollectives : public ::testing::TestWithParam<int> {};

TEST_P(ThreadCollectives, BarrierSynchronizes) {
  const int n = GetParam();
  const auto ctx = make(TransportKind::Thread, n);
  std::atomic<int> phase_count{0};
  ctx->run([&](Transport& c) {
    for (int phase = 0; phase < 5; ++phase) {
      phase_count.fetch_add(1, std::memory_order_seq_cst);
      c.barrier();
      // After the barrier every rank must have incremented for this phase.
      EXPECT_GE(phase_count.load(std::memory_order_seq_cst), (phase + 1) * n);
      c.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, ThreadCollectives,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(TransportSpecTest, KindParsingRoundTrips) {
  EXPECT_EQ(transport_kind_from_string("thread"), TransportKind::Thread);
  EXPECT_EQ(transport_kind_from_string("socket"), TransportKind::Socket);
  EXPECT_STREQ(to_string(TransportKind::Thread), "thread");
  EXPECT_STREQ(to_string(TransportKind::Socket), "socket");
  EXPECT_THROW((void)transport_kind_from_string("carrier-pigeon"), Error);
}

}  // namespace
}  // namespace ember::comm
