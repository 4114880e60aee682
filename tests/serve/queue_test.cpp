#include "glove/serve/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace glove::serve {
namespace {

cdr::CdrEvent event(cdr::UserId user, double time_min) {
  return cdr::CdrEvent{user, time_min, geo::LatLon{6.8, -5.3}};
}

TEST(EventQueue, FifoOrderPreserved) {
  EventQueue queue{16};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(queue.push(event(static_cast<cdr::UserId>(i), i)));
  }
  EXPECT_EQ(queue.depth(), 10u);
  std::vector<cdr::CdrEvent> out;
  EXPECT_EQ(queue.pop_batch(out, 100, /*timeout_ms=*/10), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].user,
              static_cast<cdr::UserId>(i));
  }
}

TEST(EventQueue, PopBatchRespectsMax) {
  EventQueue queue{16};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(queue.push(event(static_cast<cdr::UserId>(i), i)));
  }
  std::vector<cdr::CdrEvent> out;
  EXPECT_EQ(queue.pop_batch(out, 3, 10), 3u);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(queue.depth(), 5u);
  // pop_batch appends — a reused buffer must not lose earlier events.
  EXPECT_EQ(queue.pop_batch(out, 100, 10), 5u);
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(out.back().user, 7u);
}

TEST(EventQueue, BackpressureBlocksProducerUntilConsumed) {
  // Capacity 1, filled before the producer starts: with nothing popping
  // yet, the producer's first push must block — no scheduler interleaving
  // is assumed.  Only the consumer, started once the producer is seen
  // blocked, releases it; all events arrive, in order.
  EventQueue queue{1};
  constexpr int kEvents = 200;
  ASSERT_TRUE(queue.push(event(0, 0)));
  std::atomic<int> pushed{1};
  std::thread producer{[&] {
    for (int i = 1; i < kEvents; ++i) {
      if (!queue.push(event(static_cast<cdr::UserId>(i), i))) return;
      pushed.fetch_add(1);
    }
    queue.close();
  }};
  while (queue.block_waits() == 0) std::this_thread::yield();
  // Blocked, not merely slow: its push cannot return before a pop.
  EXPECT_EQ(pushed.load(), 1);
  EXPECT_EQ(queue.depth(), 1u);

  std::vector<cdr::CdrEvent> received;
  std::vector<cdr::CdrEvent> batch;
  while (!queue.drained()) {
    batch.clear();
    if (queue.pop_batch(batch, 16, 50) == 0) continue;
    received.insert(received.end(), batch.begin(), batch.end());
  }
  producer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)].user,
              static_cast<cdr::UserId>(i));
  }
  EXPECT_EQ(pushed.load(), kEvents);
  EXPECT_GT(queue.block_waits(), 0u);
}

TEST(EventQueue, PushAfterCloseFails) {
  EventQueue queue{4};
  ASSERT_TRUE(queue.push(event(1, 0.0)));
  queue.close();
  EXPECT_FALSE(queue.push(event(2, 1.0)));
  EXPECT_TRUE(queue.closed());
  // The event queued before close stays poppable.
  std::vector<cdr::CdrEvent> out;
  EXPECT_EQ(queue.pop_batch(out, 10, 10), 1u);
  EXPECT_TRUE(queue.drained());
}

TEST(EventQueue, CloseWakesBlockedProducer) {
  EventQueue queue{1};
  ASSERT_TRUE(queue.push(event(1, 0.0)));
  bool push_result = true;
  std::thread producer{[&] { push_result = queue.push(event(2, 1.0)); }};
  // The producer is (or is about to be) blocked on the full queue; close
  // must wake it with a failure instead of deadlocking.
  queue.close();
  producer.join();
  EXPECT_FALSE(push_result);
}

TEST(EventQueue, PopTimesOutOnEmptyOpenQueue) {
  EventQueue queue{4};
  std::vector<cdr::CdrEvent> out;
  EXPECT_EQ(queue.pop_batch(out, 10, /*timeout_ms=*/1), 0u);
  EXPECT_FALSE(queue.drained());  // timed out, not drained
  queue.close();
  EXPECT_EQ(queue.pop_batch(out, 10, 1), 0u);
  EXPECT_TRUE(queue.drained());
}

TEST(EventQueue, ZeroCapacityClampsToOne) {
  EventQueue queue{0};
  ASSERT_TRUE(queue.push(event(1, 0.0)));  // would deadlock unclamped
  EXPECT_EQ(queue.depth(), 1u);
}

}  // namespace
}  // namespace glove::serve
