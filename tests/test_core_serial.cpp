// Unit tests for the wire-level UART transmitter, checked against the
// test receiver, and for the reporter's frames as they arrive off the
// FPGA's TX line.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/serial.hpp"
#include "host/rig.hpp"
#include "host/slicer.hpp"
#include "sim/error.hpp"
#include "uart_rx.hpp"

namespace offramps::core {
namespace {

using test::UartRx;

struct SerialFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire line{sched, "UART", true};
  UartTx tx{sched, line, 115'200};
  UartRx rx{sched, line, 115'200};
  std::vector<std::uint8_t> received;

  void SetUp() override {
    rx.on_byte([this](std::uint8_t b, sim::Tick) { received.push_back(b); });
  }

  void send_and_run(std::initializer_list<std::uint8_t> bytes) {
    std::vector<std::uint8_t> v(bytes);
    tx.send(v);
    sched.run_all();
  }
};

TEST_F(SerialFixture, LineIdlesHigh) { EXPECT_TRUE(line.level()); }

TEST_F(SerialFixture, SingleByteRoundTrip) {
  send_and_run({0xA5});
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 0xA5);
  EXPECT_EQ(tx.bytes_sent(), 1u);
  EXPECT_EQ(rx.framing_errors(), 0u);
  EXPECT_TRUE(line.level());  // back to idle
}

TEST_F(SerialFixture, AllByteValuesRoundTrip) {
  std::vector<std::uint8_t> all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<std::uint8_t>(b));
  tx.send(all);
  sched.run_all();
  ASSERT_EQ(received.size(), 256u);
  for (int b = 0; b < 256; ++b) {
    EXPECT_EQ(received[static_cast<std::size_t>(b)], b);
  }
}

TEST_F(SerialFixture, FrameTimingMatchesBaud) {
  // 1 byte = 10 bits at 115200 baud ~= 86.8 us.
  const sim::Tick start = sched.now();
  send_and_run({0x00});
  const double elapsed_us =
      static_cast<double>(sched.now() - start) / 1000.0;
  EXPECT_NEAR(elapsed_us, 10.0 * 1e6 / 115'200.0, 2.0);
  EXPECT_EQ(tx.frame_time(16), tx.bit_time() * 160);
}

TEST_F(SerialFixture, BackToBackBytesQueue) {
  std::vector<std::uint8_t> burst(100, 0x5A);
  tx.send(burst);
  EXPECT_TRUE(tx.busy());
  EXPECT_GE(tx.max_queue_depth(), 99u);
  sched.run_all();
  EXPECT_EQ(received.size(), 100u);
  EXPECT_FALSE(tx.busy());
}

TEST_F(SerialFixture, UtilizationTracksTraffic) {
  std::vector<std::uint8_t> burst(10, 0xFF);
  tx.send(burst);
  sched.run_all();
  // All time so far was spent transmitting.
  EXPECT_GT(tx.utilization(), 0.9);
  sched.run_until(sched.now() + sim::ms(10));
  EXPECT_LT(tx.utilization(), 0.2);  // idle time dilutes it
}

TEST_F(SerialFixture, BreakConditionIsFramingError) {
  // Hold the line low across an entire would-be frame: the receiver sees
  // a start bit whose stop bit never arrives.
  line.set(false);
  sched.run_until(sched.now() + tx.bit_time() * 12);
  line.set(true);
  sched.run_all();
  EXPECT_EQ(rx.framing_errors(), 1u);
  EXPECT_TRUE(received.empty());
}

TEST_F(SerialFixture, RecoversAfterFramingError) {
  line.set(false);
  sched.run_until(sched.now() + tx.bit_time() * 12);
  line.set(true);
  sched.run_until(sched.now() + tx.bit_time() * 2);
  send_and_run({0x42});
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], 0x42);
}

TEST(UartTxEvents, UnobservedLineRunsOneEventPerByteOnTheSameBoundaries) {
  // Two transmitters send the same two 24-byte frames with a gap between
  // them: one on a bare line, one on a line with a no-op listener.
  sim::Scheduler bare_sched;
  sim::Scheduler seen_sched;
  sim::Wire bare_line(bare_sched, "U", true);
  sim::Wire seen_line(seen_sched, "U", true);
  seen_line.on_edge([](sim::Edge, sim::Tick) {});
  UartTx bare(bare_sched, bare_line, 115'200);
  UartTx seen(seen_sched, seen_line, 115'200);
  std::vector<std::uint8_t> frame(24);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(0x35 * i + 1);
  }
  const sim::Tick byte_time = bare.frame_time(1);
  const sim::Tick second = byte_time * 24 + sim::ms(1);
  for (auto* tx : {&bare, &seen}) tx->send(frame);
  bare_sched.schedule_at(second, [&] { bare.send(frame); });
  seen_sched.schedule_at(second, [&] { seen.send(frame); });

  std::uint64_t boundaries = 0;
  for (const sim::Tick start : {sim::Tick{0}, second}) {
    for (sim::Tick k = 0; k <= 24; ++k) {
      const sim::Tick t = start + k * byte_time;
      bare_sched.run_until(t);
      seen_sched.run_until(t);
      EXPECT_EQ(bare.bytes_sent(), seen.bytes_sent()) << "t=" << t;
      EXPECT_EQ(bare.busy(), seen.busy()) << "t=" << t;
      EXPECT_EQ(bare.queued(), seen.queued()) << "t=" << t;
      ++boundaries;
    }
  }
  bare_sched.run_all();
  seen_sched.run_all();
  ASSERT_EQ(boundaries, 50u);
  EXPECT_EQ(bare.bytes_sent(), 48u);
  EXPECT_EQ(seen.bytes_sent(), 48u);
  EXPECT_DOUBLE_EQ(bare.utilization(), seen.utilization());
  EXPECT_EQ(bare.max_queue_depth(), seen.max_queue_depth());
  // One event per byte on the bare line, ten (start, 8 data, stop) on
  // the observed one; each side also ran the second send().
  EXPECT_EQ(bare_sched.executed(), 48u + 1u);
  EXPECT_EQ(seen_sched.executed(), 480u + 1u);
  EXPECT_EQ(bare_line.falling_count(), 0u);  // no waveform was driven
  EXPECT_TRUE(bare_line.level());
}

TEST(UartTxEvents, ReceiverAttachedBetweenFramesDecodesTheWaveform) {
  sim::Scheduler sched;
  sim::Wire line(sched, "U", true);
  UartTx tx(sched, line, 115'200);
  const std::vector<std::uint8_t> first{0x11, 0x22};
  tx.send(first);
  sched.run_all();
  EXPECT_EQ(line.falling_count(), 0u);
  UartRx rx(sched, line, 115'200);
  std::vector<std::uint8_t> received;
  rx.on_byte([&](std::uint8_t b, sim::Tick) { received.push_back(b); });
  const std::vector<std::uint8_t> second{0xA5, 0x00, 0xFF};
  tx.send(second);
  sched.run_all();
  EXPECT_EQ(received, second);
  EXPECT_EQ(rx.framing_errors(), 0u);
  EXPECT_EQ(tx.bytes_sent(), 5u);
}

TEST(UartTxValidation, ZeroBaudThrows) {
  sim::Scheduler sched;
  sim::Wire line(sched, "U", true);
  EXPECT_THROW(UartTx(sched, line, 0), offramps::Error);
  EXPECT_THROW(UartRx(sched, line, 0), offramps::Error);
}

TEST(SerialLink, EndToEndPrintCaptureMatchesReporter) {
  // The frames received off the TX line must agree, count for count,
  // with what the FPGA-side reporter logged.
  host::RigOptions options;
  host::Rig rig(options);
  UartRx rx(rig.scheduler(), rig.board().fpga().uart_tx_line(), 115'200);
  std::vector<std::uint8_t> bytes;
  rx.on_byte([&](std::uint8_t b, sim::Tick) { bytes.push_back(b); });
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 8, .size_y_mm = 8, .height_mm = 2,
                      .center_x_mm = 110, .center_y_mm = 100};
  const host::RunResult r = rig.run(host::slice_cube(cube, profile));
  ASSERT_TRUE(r.finished);
  EXPECT_EQ(rx.framing_errors(), 0u);
  // The last frame may still be on the line when the print ends.
  const std::size_t frames = bytes.size() / Transaction::kFrameSize;
  ASSERT_GE(frames + 1, r.capture.size());
  ASSERT_LE(frames, r.capture.size());
  for (std::size_t i = 0; i < frames; ++i) {
    std::array<std::uint8_t, Transaction::kFrameSize> frame{};
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(
                                    i * Transaction::kFrameSize),
                frame.size(), frame.begin());
    const auto txn = Transaction::from_frame(frame, 0);
    ASSERT_TRUE(txn.has_value()) << "frame " << i;
    EXPECT_EQ(txn->index, r.capture.transactions[i].index);
    EXPECT_EQ(txn->counts, r.capture.transactions[i].counts)
        << "transaction " << i;
  }
  // Link budget: a 24-byte frame (magic + index + counts + CRC) at
  // 115200 baud needs ~2.1 ms, far below the 100 ms transaction period
  // (paper's design headroom).
  EXPECT_EQ(rig.board().fpga().uart_phy().max_queue_depth(), 24u);
}

}  // namespace
}  // namespace offramps::core
