// Unit tests for the bounded MPMC work queue that feeds the parallel
// pipeline: FIFO delivery, close/drain semantics, backpressure, and
// multi-producer multi-consumer exactly-once delivery.
#include "core/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

namespace wss::core {
namespace {

TEST(MpmcQueue, FifoSingleThread) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(MpmcQueue, CloseDrainsThenEndsStream) {
  MpmcQueue<int> q(8);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_EQ(q.pop(), 1);          // items before close are delivered
  EXPECT_EQ(q.pop(), 2);
  EXPECT_FALSE(q.pop().has_value());  // then end-of-stream
  EXPECT_FALSE(q.push(3));        // pushes after close are refused
}

TEST(MpmcQueue, RejectsNonPowerOfTwoCapacity) {
  EXPECT_THROW(MpmcQueue<int>(0), std::invalid_argument);
  EXPECT_THROW(MpmcQueue<int>(3), std::invalid_argument);
  EXPECT_THROW(MpmcQueue<int>(12), std::invalid_argument);
  EXPECT_NO_THROW(MpmcQueue<int>(1));
  EXPECT_NO_THROW(MpmcQueue<int>(64));
}

TEST(MpmcQueue, NextPow2) {
  EXPECT_EQ(MpmcQueue<int>::next_pow2(0), 1u);
  EXPECT_EQ(MpmcQueue<int>::next_pow2(1), 1u);
  EXPECT_EQ(MpmcQueue<int>::next_pow2(3), 4u);
  EXPECT_EQ(MpmcQueue<int>::next_pow2(8), 8u);
  EXPECT_EQ(MpmcQueue<int>::next_pow2(1000), 1024u);
}

TEST(MpmcQueue, PushEvictingDropsOldestWhenFull) {
  MpmcQueue<int> q(2);
  EXPECT_EQ(q.push_evicting(1), 0u);
  EXPECT_EQ(q.push_evicting(2), 0u);
  EXPECT_EQ(q.push_evicting(3), 1u);  // evicts 1
  EXPECT_EQ(q.push_evicting(4), 1u);  // evicts 2
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  q.close();
  EXPECT_EQ(q.push_evicting(5), MpmcQueue<int>::kClosed);
}

TEST(MpmcQueue, EvictedTotalCountsExactly) {
  MpmcQueue<int> q(8);
  for (int i = 0; i < 20; ++i) {
    EXPECT_NE(q.push_evicting(i), MpmcQueue<int>::kClosed);
  }
  // 8 fit, pushes 8..19 each evicted exactly one.
  EXPECT_EQ(q.evicted_total(), 12u);
  for (int i = 12; i < 20; ++i) EXPECT_EQ(q.pop(), i);
  // Popping is not evicting.
  EXPECT_EQ(q.evicted_total(), 12u);
}

TEST(MpmcQueue, EvictedTotalConservesUnderContention) {
  // Regression: the eviction counter used to be bumped outside the
  // queue lock, so concurrent evictors could lose increments and
  // popped + evicted would undercount the offered total.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5000;
  MpmcQueue<int> q(16);
  std::atomic<std::uint64_t> popped{0};
  {
    std::vector<std::jthread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        while (q.pop().has_value()) {
          popped.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
          for (int i = 0; i < kPerProducer; ++i) {
            EXPECT_NE(q.push_evicting(i), MpmcQueue<int>::kClosed);
          }
        });
      }
    }  // producers join
    q.close();
  }  // consumers drain and join
  // Every offered item was either delivered or evicted -- exactly once.
  EXPECT_EQ(popped.load() + q.evicted_total(),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
}

TEST(MpmcQueue, BackpressureBlocksProducerUntilPop) {
  MpmcQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::jthread producer([&] {
    q.push(3);  // must block: queue is full
    third_pushed.store(true);
  });
  // The producer cannot complete before a pop frees a slot. (A sleep
  // can't prove blocking, but a wrong queue that drops or overwrites
  // would corrupt the FIFO order checked below.)
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
}

TEST(MpmcQueue, ManyProducersManyConsumersExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 2000;
  MpmcQueue<int> q(16);

  // Each value 0..N-1 is pushed exactly once; consumers tally how
  // often each was seen.
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  {
    std::vector<std::jthread> consumers;
    for (int c = 0; c < kConsumers; ++c) {
      consumers.emplace_back([&] {
        while (auto v = q.pop()) seen[static_cast<std::size_t>(*v)]++;
      });
    }
    {
      std::vector<std::jthread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
          for (int i = 0; i < kPerProducer; ++i) {
            EXPECT_TRUE(q.push(p * kPerProducer + i));
          }
        });
      }
    }  // producers join
    q.close();
  }  // consumers drain and join

  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "value " << i;
  }
}

TEST(MpmcQueue, SingleProducerOrderPreservedAcrossThreads) {
  MpmcQueue<int> q(4);
  std::vector<int> received;
  std::jthread consumer([&] {
    while (auto v = q.pop()) received.push_back(*v);
  });
  for (int i = 0; i < 1000; ++i) q.push(i);
  q.close();
  consumer.join();
  std::vector<int> expected(1000);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(received, expected);
}

}  // namespace
}  // namespace wss::core
