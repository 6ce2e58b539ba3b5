// Concurrency tests for the striped obs::Counter, the gauge and the
// histogram.  Run under TSan via the `determinism` label: the stripes
// must be provably race-free while keeping totals exact.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace {

using offramps::obs::Counter;
using offramps::obs::Gauge;
using offramps::obs::Histogram;

TEST(ObsShardedCounter, ConcurrentAddsAggregateExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c]() {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(ObsShardedCounter, ConcurrentReadersSeeMonotonicProgress) {
  Counter c;
  std::atomic<bool> stop{false};
  std::uint64_t last_seen = 0;
  bool monotonic = true;
  std::thread reader([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t v = c.value();
      if (v < last_seen) monotonic = false;
      last_seen = v;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&c]() {
      for (int i = 0; i < 50'000; ++i) c.add(2);
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(monotonic);
  EXPECT_EQ(c.value(), 4u * 50'000u * 2u);
}

TEST(ObsShardedCounter, WeightedAddsAndResetStayExact) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 1; t <= 4; ++t) {
    threads.emplace_back([&c, t]() {
      for (int i = 0; i < 10'000; ++i) {
        c.add(static_cast<std::uint64_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 10'000u * (1 + 2 + 3 + 4));
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(ObsShardedCounter, RegistryAggregatesAcrossPoolWorkers) {
  auto& reg = offramps::obs::Registry::instance();
  Counter& c = reg.counter("test.sharded.pool_total");
  c.reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 12; ++t) {  // more threads than stripes
    threads.emplace_back([&c]() {
      for (int i = 0; i < 25'000; ++i) c.add(1);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 12u * 25'000u);
}

TEST(ObsSharded, GaugeMaxSurvivesConcurrentSets) {
  Gauge g;
  std::vector<std::thread> threads;
  for (int t = 1; t <= 8; ++t) {
    threads.emplace_back([&g, t]() {
      for (int i = 0; i < 20'000; ++i) {
        g.set(static_cast<std::int64_t>(t) * 1000 + (i % 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(g.max(), 8 * 1000 + 6);
}

TEST(ObsSharded, HistogramConcurrentObservesCountExactly) {
  Histogram h({1.0, 10.0, 100.0});
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&h, t]() {
      for (int i = 0; i < 10'000; ++i) {
        h.observe(static_cast<double>((t * 37 + i) % 200));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), 6u * 10'000u);
  std::uint64_t bucket_total = 0;
  for (const auto n : h.counts()) bucket_total += n;
  EXPECT_EQ(bucket_total, h.count());
}

}  // namespace
