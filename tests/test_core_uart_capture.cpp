// Unit tests for the UART reporter and the capture data model (byte
// serialization, the frame CRC, CSV round trip).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/uart.hpp"
#include "sim/error.hpp"
#include "sim/scheduler.hpp"

namespace offramps::core {
namespace {

TEST(Transaction, ByteRoundTrip) {
  Transaction t;
  t.index = 42;
  t.counts = {6060, -8266, 0, 52843};
  t.time_ns = 123456;
  const auto bytes = t.to_bytes();
  const Transaction u = Transaction::from_bytes(bytes, t.index, t.time_ns);
  EXPECT_EQ(u.counts, t.counts);
  EXPECT_EQ(u.index, 42u);
}

TEST(Transaction, PayloadIsSixteenBytesLittleEndian) {
  Transaction t;
  t.counts = {1, 256, -1, 0x01020304};
  const auto b = t.to_bytes();
  EXPECT_EQ(b.size(), 16u);
  EXPECT_EQ(b[0], 1u);
  EXPECT_EQ(b[4], 0u);
  EXPECT_EQ(b[5], 1u);
  EXPECT_EQ(b[8], 0xFFu);
  EXPECT_EQ(b[12], 0x04u);
  EXPECT_EQ(b[15], 0x01u);
}

TEST(Transaction, FrameRejectsAFlippedPayloadBit) {
  Transaction a;
  a.index = 7;
  a.counts = {10, 20, 30, 40};
  auto frame = a.to_frame();
  const auto intact = Transaction::from_frame(frame, 0);
  ASSERT_TRUE(intact.has_value());
  EXPECT_EQ(intact->index, 7u);
  EXPECT_EQ(intact->counts, a.counts);
  frame[8] ^= 0x40;  // flip one payload bit: the CRC must catch it
  EXPECT_FALSE(Transaction::from_frame(frame, 0).has_value());
}

TEST(Crc16, KnownAnswerIsCcittFalse) {
  const std::string check = "123456789";
  EXPECT_EQ(crc16_ccitt(reinterpret_cast<const std::uint8_t*>(check.data()),
                        check.size()),
            0x29B1);
  EXPECT_EQ(crc16_ccitt(nullptr, 0), 0xFFFF);
}

/// The bit-by-bit CRC-16/CCITT-FALSE the lookup table is built from.
std::uint16_t crc16_bitwise(const std::uint8_t* data, std::size_t len) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= static_cast<std::uint16_t>(data[i] << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
  }
  return crc;
}

TEST(Crc16, TableMatchesTheBitwiseLoop) {
  std::mt19937 rng(1021);
  std::vector<std::uint8_t> bytes;
  for (int round = 0; round < 20; ++round) {
    for (std::size_t len = 0; len <= 64; ++len) {
      bytes.resize(len);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      ASSERT_EQ(crc16_ccitt(bytes.data(), len),
                crc16_bitwise(bytes.data(), len))
          << "round " << round << ", length " << len;
    }
  }
}

TEST(Capture, CsvRoundTrip) {
  Capture cap;
  cap.label = "golden";
  for (std::uint32_t i = 0; i < 5; ++i) {
    Transaction t;
    t.index = i;
    t.counts = {static_cast<std::int32_t>(i * 100),
                static_cast<std::int32_t>(i * 200), -5,
                static_cast<std::int32_t>(i * 300)};
    cap.transactions.push_back(t);
  }
  const Capture back = Capture::from_csv(cap.to_csv(), "copy");
  ASSERT_EQ(back.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.transactions[i].counts, cap.transactions[i].counts);
  }
  EXPECT_EQ(back.label, "copy");
}

TEST(Capture, CsvHeaderMatchesPaperFigure) {
  Capture cap;
  Transaction t;
  t.index = 5113;
  t.counts = {6060, 8266, 960, 52843};
  cap.transactions.push_back(t);
  const std::string csv = cap.to_csv();
  EXPECT_NE(csv.find("Index, X, Y, Z, E"), std::string::npos);
  EXPECT_NE(csv.find("5113, 6060, 8266, 960, 52843"), std::string::npos);
}

TEST(Capture, MalformedCsvThrows) {
  EXPECT_THROW(Capture::from_csv("Index, X, Y, Z, E\n1, 2, three\n"),
               offramps::Error);
  // A value its field cannot hold is an error, never a wrapped one:
  // these X counts would read as 500 and 1000, and this index as 0.
  EXPECT_THROW(Capture::from_csv("Index, X, Y, Z, E\n0, 4294967796, 0, 0, 0\n"
                                 "1, 4294968296, 0, 0, 0\n"),
               offramps::Error);
  EXPECT_THROW(Capture::from_csv("Index, X, Y, Z, E\n4294967296, 1, 2, 3, 4\n"),
               offramps::Error);
}

TEST(Capture, CsvFooterPreservesExactFinals) {
  Capture cap;
  Transaction t;
  t.index = 0;
  t.counts = {100, 200, 300, 400};
  cap.transactions.push_back(t);
  // Finals captured at finalize time exceed the last transaction (steps
  // landed in the final partial window).
  cap.final_counts = {105, 200, 307, 411};
  cap.print_completed = false;
  const Capture back = Capture::from_csv(cap.to_csv());
  EXPECT_EQ(back.final_counts, cap.final_counts);
  EXPECT_FALSE(back.print_completed);
}

TEST(Capture, LegacyCsvWithoutFooterFallsBackToLastRow) {
  const Capture back = Capture::from_csv(
      "Index, X, Y, Z, E\n0, 10, 20, 30, 40\n1, 11, 21, 31, 41\n");
  EXPECT_EQ(back.final_counts,
            (std::array<std::int64_t, 4>{11, 21, 31, 41}));
  EXPECT_TRUE(back.print_completed);
}

TEST(Capture, MalformedFooterThrows) {
  EXPECT_THROW(Capture::from_csv("Index, X, Y, Z, E\n0, 1, 2, 3, 4\n"
                                 "# final, x, y\n"),
               offramps::Error);
  // Missing finals do not read as zeros, and a comment that only starts
  // like the footer is not an all-zero footer.
  EXPECT_THROW(Capture::from_csv("Index, X, Y, Z, E\n0, 1, 2, 3, 4\n"
                                 "# final, 1000\n"),
               offramps::Error);
  EXPECT_THROW(Capture::from_csv("Index, X, Y, Z, E\n0, 1, 2, 3, 4\n"
                                 "# finalize me\n"),
               offramps::Error);
}

struct UartFixture : ::testing::Test {
  sim::Scheduler sched;
  sim::Wire xs{sched, "XS"}, xd{sched, "XD"};
  sim::Wire ys{sched, "YS"}, yd{sched, "YD"};
  sim::Wire zs{sched, "ZS"}, zd{sched, "ZD"};
  sim::Wire es{sched, "ES"}, ed{sched, "ED"};
  sim::Wire xm{sched, "XM"}, ym{sched, "YM"}, zm{sched, "ZM"};
  AxisTracker tx{sched, xs, xd}, ty{sched, ys, yd}, tz{sched, zs, zd},
      te{sched, es, ed};
  HomingDetector homing{sched, xm, ym, zm};
  UartReporter uart{sched, {&tx, &ty, &tz, &te}, homing};

  void home() {
    for (sim::Wire* w : {&xm, &ym, &zm}) {
      w->set(true);
      sched.run_until(sched.now() + sim::ms(1));
      w->set(false);
      sched.run_until(sched.now() + sim::ms(1));
      w->set(true);
      sched.run_until(sched.now() + sim::ms(1));
      w->set(false);
      sched.run_until(sched.now() + sim::ms(1));
    }
  }

  void step_x(int n) {
    xd.set(true);
    for (int i = 0; i < n; ++i) {
      xs.set(true);
      xs.set(false);
      sched.run_until(sched.now() + sim::us(100));
    }
  }
};

TEST_F(UartFixture, NoTransactionsBeforeHoming) {
  step_x(10);  // steps before homing: counters not armed
  sched.run_until(sim::seconds(2));
  EXPECT_TRUE(uart.capture().empty());
  EXPECT_FALSE(uart.streaming());
}

TEST_F(UartFixture, StreamStartsAfterHomingPlusFirstStep) {
  home();
  sched.run_until(sched.now() + sim::seconds(1));
  EXPECT_TRUE(uart.capture().empty());  // homed but no step yet
  step_x(5);
  EXPECT_TRUE(uart.streaming());
  sched.run_until(sched.now() + sim::ms(1050));
  EXPECT_GE(uart.capture().size(), 10u);  // ~0.1 s cadence
  EXPECT_LE(uart.capture().size(), 11u);
}

TEST_F(UartFixture, TransactionsCarryCumulativeCounts) {
  home();
  step_x(50);
  sched.run_until(sched.now() + sim::ms(250));
  const auto& txns = uart.capture().transactions;
  ASSERT_GE(txns.size(), 2u);
  EXPECT_EQ(txns.back().counts[0], 50);
  EXPECT_EQ(txns.back().counts[1], 0);
  // Indices are sequential from zero.
  for (std::size_t i = 0; i < txns.size(); ++i) {
    EXPECT_EQ(txns[i].index, static_cast<std::uint32_t>(i));
  }
}

TEST_F(UartFixture, PerTransactionCallbackStreams) {
  int delivered = 0;
  uart.on_transaction([&](const Transaction&) { ++delivered; });
  home();
  step_x(5);
  sched.run_until(sched.now() + sim::ms(550));
  EXPECT_GE(delivered, 5);
}

TEST_F(UartFixture, FinalizeFreezesCountsAndStopsStream) {
  home();
  step_x(30);
  sched.run_until(sched.now() + sim::ms(300));
  uart.finalize(/*print_completed=*/true);
  const auto size_at_finalize = uart.capture().size();
  step_x(10);
  sched.run_until(sched.now() + sim::seconds(1));
  EXPECT_EQ(uart.capture().size(), size_at_finalize);
  // Final counts were frozen at finalize time.
  EXPECT_EQ(uart.capture().final_counts[0], 30);
  EXPECT_TRUE(uart.capture().print_completed);
}

TEST_F(UartFixture, HomingZeroesCountersAtDatum) {
  step_x(25);  // pre-homing noise
  home();
  step_x(10);
  sched.run_until(sched.now() + sim::ms(150));
  EXPECT_EQ(uart.capture().transactions.back().counts[0], 10);
}

}  // namespace
}  // namespace offramps::core
