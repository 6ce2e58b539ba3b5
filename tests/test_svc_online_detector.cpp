// svc::OnlineDetector edge cases: first-window alarm, the lossless
// backpressure stall under a stalled consumer, the stream-length overrun
// channel, the golden-free channel, and the post-print final-counts
// verdict.  These drive the detector directly (no rig) so every corner
// of the ring/stream contract is pinned down deterministically.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/capture.hpp"
#include "svc/online_detector.hpp"

namespace {

using offramps::core::Capture;
using offramps::core::Transaction;
using offramps::svc::Channel;
using offramps::svc::OnlineDetector;
using offramps::svc::OnlineDetectorOptions;
using offramps::svc::OnlineReport;

// A golden capture whose per-index counts are unique and comfortably
// above the compare floor, so any lost, duplicated, or reordered window
// in the observed stream pairs against the wrong golden counts and shows
// up as a mismatch.
Capture make_golden(std::size_t n) {
  Capture cap;
  cap.label = "golden";
  cap.print_completed = true;
  for (std::size_t i = 0; i < n; ++i) {
    Transaction txn;
    txn.index = static_cast<std::uint32_t>(i);
    const auto base = static_cast<std::int32_t>(1000 + 100 * i);
    txn.counts = {base, base + 1, base + 2, base + 3};
    txn.time_ns = 100'000'000ull * (i + 1);
    cap.transactions.push_back(txn);
    cap.final_counts = {txn.counts[0], txn.counts[1], txn.counts[2],
                        txn.counts[3]};
  }
  return cap;
}

OnlineDetectorOptions quiet_options() {
  OnlineDetectorOptions options;
  // The synthetic streams here are not physical prints; keep the
  // golden-free channel out of the way unless a test arms it.
  options.golden_free = false;
  return options;
}

TEST(OnlineDetector, FirstWindowAlarm) {
  const Capture golden = make_golden(10);
  OnlineDetectorOptions options = quiet_options();
  options.consecutive_to_alarm = 1;  // no debounce: trust window 0
  OnlineDetector det(options, {.golden = &golden});

  std::size_t alarm_callbacks = 0;
  det.on_alarm([&](const OnlineReport&) { ++alarm_callbacks; });

  Transaction bad = golden.transactions[0];
  bad.counts[0] *= 2;  // 100% off on X in the very first window
  det.submit(bad);
  EXPECT_EQ(det.drain(), 1u);

  const OnlineReport report = det.report();
  EXPECT_TRUE(report.alarmed);
  EXPECT_TRUE(report.alarmed_mid_print);
  EXPECT_EQ(report.first_channel, Channel::kGoldenCompare);
  EXPECT_EQ(report.alarm_window, 0u);
  EXPECT_EQ(report.alarm_tick_ns, bad.time_ns);
  EXPECT_EQ(alarm_callbacks, 1u);
  EXPECT_GE(report.verdict(Channel::kGoldenCompare)->mismatches, 1u);
}

TEST(OnlineDetector, DebounceHoldsOneOffSpike) {
  const Capture golden = make_golden(10);
  OnlineDetectorOptions options = quiet_options();
  options.consecutive_to_alarm = 2;
  OnlineDetector det(options, {.golden = &golden});

  // One bad window surrounded by clean ones never alarms at debounce 2.
  for (std::size_t i = 0; i < golden.transactions.size(); ++i) {
    Transaction txn = golden.transactions[i];
    if (i == 4) txn.counts[1] *= 3;
    det.submit(txn);
  }
  det.drain();
  EXPECT_FALSE(det.alarmed());
  EXPECT_EQ(det.report().verdict(Channel::kGoldenCompare)->mismatches, 1u);
}

TEST(OnlineDetector, BackpressureStallsLoseNothing) {
  constexpr std::size_t kStream = 100;
  const Capture golden = make_golden(kStream);
  OnlineDetectorOptions options = quiet_options();
  options.ring_capacity = 8;
  OnlineDetector det(options, {.golden = &golden});

  // Stalled consumer: submit the whole stream without a single poll.
  // The ring must saturate, the producer must stall-and-drain, and every
  // window must still be judged exactly once.
  for (const Transaction& txn : golden.transactions) det.submit(txn);
  EXPECT_LE(det.queued(), options.ring_capacity);
  det.drain();

  const OnlineReport report = det.report();
  // No loss and no duplication: 100 unique windows processed, zero
  // mismatches (a dropped/duplicated/reordered window would pair against
  // the wrong golden counts and mismatch).
  EXPECT_EQ(report.windows_processed, kStream);
  EXPECT_EQ(report.verdict(Channel::kGoldenCompare)->mismatches, 0u);
  EXPECT_FALSE(report.alarmed);
  // Backpressure was actually exercised, and memory stayed bounded.
  EXPECT_GT(report.backpressure_stalls, 0u);
  EXPECT_EQ(report.ring_high_water, options.ring_capacity);
}

TEST(OnlineDetector, ProducerStallAtExactRingCapacityBoundary) {
  OnlineDetectorOptions options = quiet_options();
  options.ring_capacity = 8;

  // Stream length exactly == capacity: the ring fills to the brim but the
  // producer never has to stall.
  {
    const Capture golden = make_golden(options.ring_capacity);
    OnlineDetector det(options, {.golden = &golden});
    for (const Transaction& txn : golden.transactions) det.submit(txn);
    EXPECT_EQ(det.queued(), options.ring_capacity);
    EXPECT_EQ(det.report().backpressure_stalls, 0u);
    det.drain();
    const OnlineReport report = det.report();
    EXPECT_EQ(report.windows_processed, options.ring_capacity);
    EXPECT_EQ(report.ring_high_water, options.ring_capacity);
    EXPECT_EQ(report.verdict(Channel::kGoldenCompare)->mismatches, 0u);
  }

  // One past capacity: the first submit that finds the ring full is the
  // first stall, and the overflow window is drained, not dropped.
  {
    const Capture golden = make_golden(options.ring_capacity + 1);
    OnlineDetector det(options, {.golden = &golden});
    for (const Transaction& txn : golden.transactions) det.submit(txn);
    det.drain();
    const OnlineReport report = det.report();
    EXPECT_EQ(report.backpressure_stalls, 1u);
    EXPECT_EQ(report.windows_processed, options.ring_capacity + 1);
    EXPECT_EQ(report.verdict(Channel::kGoldenCompare)->mismatches, 0u);
    EXPECT_FALSE(report.alarmed);
  }
}

TEST(OnlineDetector, PollInBatchesMatchesDrain) {
  const Capture golden = make_golden(30);
  OnlineDetector det(quiet_options(), {.golden = &golden});
  std::size_t polled = 0;
  for (std::size_t i = 0; i < golden.transactions.size(); ++i) {
    det.submit(golden.transactions[i]);
    if (i % 3 == 2) polled += det.poll(2);
  }
  polled += det.drain();
  EXPECT_EQ(polled, golden.transactions.size());
  EXPECT_EQ(det.windows_processed(), golden.transactions.size());
  EXPECT_FALSE(det.alarmed());
}

TEST(OnlineDetector, StreamLengthOverrunAlarms) {
  const Capture golden = make_golden(20);
  OnlineDetectorOptions options = quiet_options();
  OnlineDetector det(options, {.golden = &golden});

  // Replay the golden stream, then keep the stream alive well past the
  // compare length tolerance plus the slack window budget.
  for (const Transaction& txn : golden.transactions) det.submit(txn);
  Transaction extra = golden.transactions.back();
  for (std::uint32_t i = 0; i < 2 * options.length_slack_windows + 4; ++i) {
    extra.index += 1;
    extra.time_ns += 100'000'000ull;
    det.submit(extra);
    det.drain();
    if (det.alarmed()) break;
  }
  const OnlineReport report = det.report();
  EXPECT_TRUE(report.alarmed);
  EXPECT_TRUE(report.alarmed_mid_print);
  EXPECT_EQ(report.first_channel, Channel::kStreamLength);
}

TEST(OnlineDetector, GoldenFreeChannelNeedsNoReference) {
  OnlineDetectorOptions options;  // golden_free on by default
  options.golden_free_min_violations = 3;
  OnlineDetector det(options);  // note: no golden reference

  // Impossible kinematics: ~10 m of X travel per 0.1 s window.
  Transaction txn;
  for (std::uint32_t i = 0; i < 8 && !det.alarmed(); ++i) {
    txn.index = i;
    txn.counts[0] += 1'000'000;
    txn.time_ns += 100'000'000ull;
    det.submit(txn);
    det.drain();
  }
  const OnlineReport report = det.report();
  EXPECT_TRUE(report.alarmed);
  EXPECT_TRUE(report.alarmed_mid_print);
  EXPECT_EQ(report.first_channel, Channel::kGoldenFree);
  EXPECT_GE(report.verdict(Channel::kGoldenFree)->mismatches,
            options.golden_free_min_violations);
}

TEST(OnlineDetector, FinalCountsCheckIsPostPrint) {
  const Capture golden = make_golden(10);
  OnlineDetector det(quiet_options(), {.golden = &golden});

  // The windowed stream is clean...
  for (const Transaction& txn : golden.transactions) det.submit(txn);

  // ...but the finals are off by one step: only the paper's 0%-margin
  // end-of-print check can see it.
  Capture observed = golden;
  observed.final_counts[3] += 1;
  det.finish(observed);

  const OnlineReport report = det.report();
  EXPECT_TRUE(report.stream_finished);
  EXPECT_TRUE(report.alarmed);
  EXPECT_FALSE(report.alarmed_mid_print);  // fired after the stream ended
  EXPECT_EQ(report.first_channel, Channel::kFinalCounts);
  EXPECT_EQ(report.verdict(Channel::kFinalCounts)->mismatches, 1u);
}

TEST(OnlineDetector, CleanStreamStaysClean) {
  const Capture golden = make_golden(25);
  OnlineDetector det(quiet_options(), {.golden = &golden});
  for (const Transaction& txn : golden.transactions) {
    det.submit(txn);
    det.poll(1);
  }
  det.finish(golden);
  const OnlineReport report = det.report();
  EXPECT_FALSE(report.alarmed);
  EXPECT_TRUE(report.stream_finished);
  EXPECT_EQ(report.verdict(Channel::kFinalCounts)->mismatches, 0u);
  EXPECT_EQ(report.first_channel, Channel::kNone);
  EXPECT_EQ(report.windows_processed, golden.transactions.size());
}

}  // namespace
