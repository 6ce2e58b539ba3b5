// core::Capture binary serialization: the versioned, length-prefixed
// format fleet runs use to persist and replay captures.  Round-trip
// identity, tamper rejection (magic/version, trailing bytes), and
// truncation detection at every structurally interesting cut point; and
// core::read_file, the one file reader under the binary formats.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/capture.hpp"
#include "sim/error.hpp"

namespace {

using offramps::core::Capture;
using offramps::core::read_file;
using offramps::core::Transaction;
using offramps::core::write_file_atomic;

Capture sample_capture() {
  Capture cap;
  cap.label = "cube-8x8x3 seed 1000";
  cap.print_completed = true;
  cap.final_counts = {123456, -7890, 4200, 998877};
  for (std::uint32_t i = 0; i < 5; ++i) {
    Transaction txn;
    txn.index = i;
    txn.counts = {static_cast<std::int32_t>(100 * i),
                  static_cast<std::int32_t>(-50 * i),
                  static_cast<std::int32_t>(7 * i),
                  static_cast<std::int32_t>(1000 + i)};
    txn.time_ns = 100'000'000ull * (i + 1);
    cap.transactions.push_back(txn);
  }
  return cap;
}

void expect_equal(const Capture& a, const Capture& b) {
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.print_completed, b.print_completed);
  EXPECT_EQ(a.final_counts, b.final_counts);
  ASSERT_EQ(a.transactions.size(), b.transactions.size());
  for (std::size_t i = 0; i < a.transactions.size(); ++i) {
    EXPECT_EQ(a.transactions[i].index, b.transactions[i].index);
    EXPECT_EQ(a.transactions[i].counts, b.transactions[i].counts);
    EXPECT_EQ(a.transactions[i].time_ns, b.transactions[i].time_ns);
  }
}

TEST(CaptureBinary, RoundTripIdentity) {
  const Capture cap = sample_capture();
  const std::vector<std::uint8_t> bytes = cap.to_binary();
  expect_equal(cap, Capture::from_binary(bytes));
  // Serialization itself is deterministic.
  EXPECT_EQ(bytes, Capture::from_binary(bytes).to_binary());
  // FNV-1a of these bytes, recorded before the format moved onto
  // core/bytes.hpp: a codec change that moves a byte fails here.
  offramps::core::Fnv1a fnv;
  fnv.bytes(bytes.data(), bytes.size());
  EXPECT_EQ(fnv.value(), 0xf850a184dcc3bf3aull);
}

TEST(CaptureBinary, RoundTripEmptyAndAborted) {
  Capture cap;
  cap.label = "";
  cap.print_completed = false;  // killed print: flag bit must survive
  const Capture back = Capture::from_binary(cap.to_binary());
  expect_equal(cap, back);
  EXPECT_FALSE(back.print_completed);
}

TEST(CaptureBinary, RejectsBadMagic) {
  std::vector<std::uint8_t> bytes = sample_capture().to_binary();
  bytes[0] = 'X';
  EXPECT_THROW(Capture::from_binary(bytes), offramps::Error);
}

TEST(CaptureBinary, RejectsUnknownVersion) {
  std::vector<std::uint8_t> bytes = sample_capture().to_binary();
  bytes[4] = 0xFF;  // version u16 LE lives right after the 4-byte magic
  EXPECT_THROW(Capture::from_binary(bytes), offramps::Error);
}

TEST(CaptureBinary, RejectsTrailingBytes) {
  std::vector<std::uint8_t> bytes = sample_capture().to_binary();
  bytes.push_back(0x00);
  bytes.push_back(0x00);
  EXPECT_THROW(Capture::from_binary(bytes), offramps::Error);
}

TEST(CaptureBinary, RejectsTruncationEverywhere) {
  const std::vector<std::uint8_t> bytes = sample_capture().to_binary();
  // Cut inside every region: header, label, count, a transaction body,
  // and the trailing finals.  All must throw, none may mis-decode.
  const std::size_t cuts[] = {0,  2,  7,  10, bytes.size() / 3,
                              bytes.size() / 2, bytes.size() - 33,
                              bytes.size() - 1};
  for (const std::size_t cut : cuts) {
    ASSERT_LT(cut, bytes.size());
    EXPECT_THROW(Capture::from_binary(bytes.data(), cut), offramps::Error)
        << "cut at " << cut << " of " << bytes.size();
  }
}

// Offset of the u32 label length in the wire format: magic(4) +
// version(2) + flags(2).
constexpr std::size_t kLabelLenOffset = 8;

TEST(CaptureBinary, RejectsLyingCountPrefixWithoutAllocating) {
  const Capture cap = sample_capture();
  std::vector<std::uint8_t> bytes = cap.to_binary();
  const std::size_t count_offset = kLabelLenOffset + 4 + cap.label.size();
  // Claim ~2^64 transactions in a tiny buffer.  The reader must bound
  // the count against the remaining input and throw before reserving a
  // single byte - this is the OOM-bomb path a corrupted or hostile
  // capture file would hit.
  for (std::size_t i = 0; i < 8; ++i) bytes[count_offset + i] = 0xFF;
  EXPECT_THROW(Capture::from_binary(bytes), offramps::Error);

  // An off-by-one lie (one more record than the buffer holds) is just as
  // dead: the bound is exact, not order-of-magnitude.
  bytes = cap.to_binary();
  bytes[count_offset] = static_cast<std::uint8_t>(cap.size() + 1);
  EXPECT_THROW(Capture::from_binary(bytes), offramps::Error);
}

TEST(CaptureBinary, RejectsLyingLabelLength) {
  std::vector<std::uint8_t> bytes = sample_capture().to_binary();
  // A label length pointing past the end of the buffer must be caught by
  // the bounds check, not read out of bounds.
  for (std::size_t i = 0; i < 4; ++i) bytes[kLabelLenOffset + i] = 0xFF;
  EXPECT_THROW(Capture::from_binary(bytes), offramps::Error);
}

TEST(CaptureBinary, FileRoundTrip) {
  const Capture cap = sample_capture();
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "capture_rt.bin";
  cap.save_binary(path.string());
  expect_equal(cap, Capture::from_binary(read_file(path.string(), "test")));
  std::filesystem::remove(path);
}

TEST(CaptureBinary, MissingFileThrows) {
  EXPECT_THROW(Capture::from_binary(
                   read_file("/nonexistent/dir/capture.bin", "test")),
               offramps::Error);
}

/// The message read_file throws for `path`, or "" when it returns.
std::string read_error(const std::string& path) {
  try {
    (void)read_file(path, "test");
  } catch (const offramps::Error& e) {
    return e.what();
  }
  return "";
}

TEST(ReadFile, EmptyFileIsZeroBytes) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "read_file_empty.bin";
  write_file_atomic(path.string(), {}, "test");
  EXPECT_TRUE(read_file(path.string(), "test").empty());
  std::filesystem::remove(path);
}

TEST(ReadFile, ReadsAFileOneBytePastTheChunkSize) {
  std::vector<std::uint8_t> bytes((1u << 16) + 1);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "read_file_65537.bin";
  write_file_atomic(path.string(), bytes, "test");
  EXPECT_EQ(read_file(path.string(), "test"), bytes);
  std::filesystem::remove(path);
}

TEST(ReadFile, NonRegularFileIsReadToItsEnd) {
  EXPECT_TRUE(read_file("/dev/null", "test").empty());
}

TEST(ReadFile, DirectoryIsAReadFailure) {
  const std::string dir = ::testing::TempDir();
  EXPECT_EQ(read_error(dir), "test: read failed for " + dir);
}

TEST(ReadFile, MissingPathCannotBeOpened) {
  EXPECT_EQ(read_error("/nonexistent/dir/file.bin"),
            "test: cannot open /nonexistent/dir/file.bin");
}

}  // namespace
