// core::wire: the rig-session stream format.  Round-trips every frame
// type through the recorder and the incremental bounded reader, pins the
// concatenated-stream split contract (short feed() return exactly at
// kEnd), and drives the damage paths: outer-framing corruption must
// resync and be counted, inner-CRC damage must drop just that
// transaction, truncation must classify as a disconnect, and a lying
// length prefix must never cause an allocation or an over-read.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/capture.hpp"
#include "core/session_wire.hpp"
#include "sim/error.hpp"

namespace {

using offramps::Error;
using offramps::core::Capture;
using offramps::core::Transaction;
using offramps::core::wire::Frame;
using offramps::core::wire::FrameReader;
using offramps::core::wire::FrameType;
using offramps::core::wire::list_corpus_files;
using offramps::core::wire::list_session_corpus;
using offramps::core::wire::SessionHello;
using offramps::core::wire::SessionMeta;
using offramps::core::wire::SessionRecorder;

Transaction sample_txn(std::uint32_t i) {
  Transaction t;
  t.index = i;
  t.counts = {static_cast<std::int32_t>(3 * i), static_cast<std::int32_t>(i),
              0, static_cast<std::int32_t>(2 * i)};
  t.time_ns = 1'000'000ull * (i + 1);
  return t;
}

Capture sample_capture(std::size_t n) {
  Capture cap;
  cap.label = "wire-test";
  cap.print_completed = true;
  for (std::size_t i = 0; i < n; ++i) {
    cap.transactions.push_back(sample_txn(static_cast<std::uint32_t>(i)));
  }
  cap.final_counts = {30, 10, 0, 20};
  return cap;
}

/// One full session: hello, 4 txns with slots, 2 power samples, finish,
/// end - the exact event mix a live rig records.
std::vector<std::uint8_t> sample_stream() {
  SessionRecorder rec;
  rec.hello({.rig_index = 3,
             .seed = 77,
             .cube_mm = 6.0,
             .height_mm = 1.5,
             .name = "wire-rig",
             .sabotage = "reduce:0.5",
             .chaos = "none"});
  for (std::uint32_t i = 0; i < 4; ++i) {
    rec.txn(sample_txn(i));
    rec.slot();
  }
  rec.power(0.5, 11.25);
  rec.power(1.0, 12.5);
  rec.finish(sample_capture(4));
  rec.end({.print_finished = true,
           .safe_stopped = false,
           .sim_seconds = 12.75,
           .final_counts = {9, 3, 0, 6}});
  return rec.bytes();
}

/// Collects every decoded frame for structural assertions.
std::vector<Frame> parse_all(FrameReader& reader,
                             const std::vector<std::uint8_t>& bytes,
                             std::size_t* used_out = nullptr) {
  std::vector<Frame> frames;
  const std::size_t used = reader.feed(
      bytes.data(), bytes.size(), [&](const Frame& f) { frames.push_back(f); });
  if (used_out != nullptr) *used_out = used;
  return frames;
}

TEST(SessionWire, RoundTripWholeBuffer) {
  const std::vector<std::uint8_t> bytes = sample_stream();
  // FNV-1a of the stream, recorded before the format moved onto
  // core/bytes.hpp: a codec change that moves a byte fails here.
  offramps::core::Fnv1a fnv;
  fnv.bytes(bytes.data(), bytes.size());
  EXPECT_EQ(fnv.value(), 0x3380db0717026756ull);

  FrameReader reader;
  std::size_t used = 0;
  const std::vector<Frame> frames = parse_all(reader, bytes, &used);

  EXPECT_EQ(used, bytes.size());
  EXPECT_TRUE(reader.ended());
  EXPECT_FALSE(reader.failed());
  EXPECT_EQ(reader.resyncs(), 0u);
  EXPECT_EQ(reader.corrupt_txns(), 0u);

  // hello, (txn, slot) x 4, power x 2, finish, end.
  ASSERT_EQ(frames.size(), 13u);
  ASSERT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[0].hello.rig_index, 3u);
  EXPECT_EQ(frames[0].hello.seed, 77u);
  EXPECT_DOUBLE_EQ(frames[0].hello.cube_mm, 6.0);
  EXPECT_DOUBLE_EQ(frames[0].hello.height_mm, 1.5);
  EXPECT_EQ(frames[0].hello.name, "wire-rig");
  EXPECT_EQ(frames[0].hello.sabotage, "reduce:0.5");
  EXPECT_EQ(frames[0].hello.chaos, "none");

  for (std::uint32_t i = 0; i < 4; ++i) {
    ASSERT_EQ(frames[1 + 2 * i].type, FrameType::kTxn);
    const Transaction& txn = frames[1 + 2 * i].txn;
    EXPECT_EQ(txn.index, i);
    EXPECT_EQ(txn.counts, sample_txn(i).counts);
    EXPECT_EQ(txn.time_ns, sample_txn(i).time_ns);
    EXPECT_EQ(frames[2 + 2 * i].type, FrameType::kSlot);
  }

  ASSERT_EQ(frames[9].type, FrameType::kPower);
  EXPECT_DOUBLE_EQ(frames[9].power_t_s, 0.5);
  EXPECT_DOUBLE_EQ(frames[9].power_watts, 11.25);
  ASSERT_EQ(frames[10].type, FrameType::kPower);
  EXPECT_DOUBLE_EQ(frames[10].power_t_s, 1.0);

  ASSERT_EQ(frames[11].type, FrameType::kFinish);
  const Capture finish =
      Capture::from_binary(frames[11].finish.data(), frames[11].finish.size());
  EXPECT_EQ(finish.size(), 4u);
  EXPECT_EQ(finish.final_counts, sample_capture(4).final_counts);

  ASSERT_EQ(frames[12].type, FrameType::kEnd);
  EXPECT_TRUE(frames[12].end.print_finished);
  EXPECT_FALSE(frames[12].end.safe_stopped);
  EXPECT_DOUBLE_EQ(frames[12].end.sim_seconds, 12.75);
  EXPECT_EQ(frames[12].end.final_counts,
            (std::array<std::int64_t, 4>{9, 3, 0, 6}));
}

TEST(SessionWire, ByteAtATimeFeedMatchesWholeBuffer) {
  const std::vector<std::uint8_t> bytes = sample_stream();
  FrameReader reader;
  std::vector<FrameType> types;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t used = reader.feed(
        bytes.data() + off, 1, [&](const Frame& f) { types.push_back(f.type); });
    if (used == 0) break;  // ended: leftover belongs to a later stream
    off += used;
  }
  EXPECT_EQ(off, bytes.size());
  EXPECT_TRUE(reader.ended());
  ASSERT_EQ(types.size(), 13u);
  EXPECT_EQ(types.front(), FrameType::kHello);
  EXPECT_EQ(types.back(), FrameType::kEnd);
}

TEST(SessionWire, ConcatenatedStreamsSplitExactlyAtEnd) {
  const std::vector<std::uint8_t> one = sample_stream();
  std::vector<std::uint8_t> two = one;
  two.insert(two.end(), one.begin(), one.end());

  FrameReader first;
  std::size_t frames_a = 0;
  const std::size_t used_a =
      first.feed(two.data(), two.size(), [&](const Frame&) { ++frames_a; });
  EXPECT_EQ(used_a, one.size()) << "must stop consuming at the first kEnd";
  EXPECT_TRUE(first.ended());
  EXPECT_EQ(frames_a, 13u);

  // An ended reader consumes nothing further.
  EXPECT_EQ(first.feed(two.data() + used_a, two.size() - used_a,
                       [](const Frame&) { FAIL() << "ended reader emitted"; }),
            0u);

  // The leftover is a complete second session for a fresh reader.
  FrameReader second;
  std::size_t frames_b = 0;
  const std::size_t used_b = second.feed(
      two.data() + used_a, two.size() - used_a, [&](const Frame&) { ++frames_b; });
  EXPECT_EQ(used_b, one.size());
  EXPECT_TRUE(second.ended());
  EXPECT_EQ(frames_b, 13u);
}

TEST(SessionWire, CloseBeforeEndIsDisconnect) {
  std::vector<std::uint8_t> bytes = sample_stream();
  bytes.resize(bytes.size() / 2);
  FrameReader reader;
  const std::size_t used =
      reader.feed(bytes.data(), bytes.size(), [](const Frame&) {});
  EXPECT_EQ(used, bytes.size()) << "a live reader buffers partial frames";
  EXPECT_FALSE(reader.ended());
  reader.close();
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("disconnected"), std::string::npos)
      << reader.error();
}

TEST(SessionWire, BadStreamHeaderFailsNotResyncs) {
  std::vector<std::uint8_t> bytes = sample_stream();
  bytes[0] = 'X';
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size(),
              [](const Frame&) { FAIL() << "no frames from a bad header"; });
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("magic"), std::string::npos) << reader.error();
}

TEST(SessionWire, VersionSkewIsRejected) {
  std::vector<std::uint8_t> bytes = sample_stream();
  bytes[4] ^= 0x01;  // u16 version, little endian
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size(), [](const Frame&) {});
  EXPECT_TRUE(reader.failed());
  EXPECT_NE(reader.error().find("version"), std::string::npos)
      << reader.error();
}

/// Byte offset where the frame after the hello starts, computed by
/// recording the same hello sample_stream() uses.
std::size_t offset_after_hello() {
  SessionRecorder rec;
  rec.hello({.rig_index = 3,
             .seed = 77,
             .cube_mm = 6.0,
             .height_mm = 1.5,
             .name = "wire-rig",
             .sabotage = "reduce:0.5",
             .chaos = "none"});
  return rec.bytes().size();
}

TEST(SessionWire, OuterFramingDamageResyncsAndIsCounted) {
  std::vector<std::uint8_t> bytes = sample_stream();
  // Smash the outer magic of the second frame (the first kTxn).
  const std::size_t second_frame = offset_after_hello();
  ASSERT_LT(second_frame + 1, bytes.size());
  ASSERT_EQ(bytes[second_frame], 0xA7);  // kFrameMagic, little endian
  ASSERT_EQ(bytes[second_frame + 1], 0xF5);
  bytes[second_frame] = 0x00;
  bytes[second_frame + 1] = 0x00;

  FrameReader reader;
  std::size_t txns = 0;
  reader.feed(bytes.data(), bytes.size(), [&](const Frame& f) {
    if (f.type == FrameType::kTxn) ++txns;
  });
  EXPECT_TRUE(reader.ended()) << "the hunt must find the next frame";
  EXPECT_FALSE(reader.failed());
  EXPECT_GE(reader.resyncs(), 1u);
  EXPECT_LT(txns, 4u) << "the frame under the damaged header is gone";
}

TEST(SessionWire, InnerCrcDamageDropsJustThatTransaction) {
  std::vector<std::uint8_t> bytes = sample_stream();
  // Flip a counts byte inside the first kTxn's embedded Transaction
  // frame: outer framing stays valid, the inner CRC rejects it.
  const std::size_t payload = offset_after_hello() + 7;
  bytes[payload + 8] ^= 0xFF;

  FrameReader reader;
  std::size_t txns = 0;
  std::size_t used = 0;
  used = reader.feed(bytes.data(), bytes.size(), [&](const Frame& f) {
    if (f.type == FrameType::kTxn) ++txns;
  });
  EXPECT_EQ(used, bytes.size());
  EXPECT_TRUE(reader.ended());
  EXPECT_EQ(reader.corrupt_txns(), 1u);
  EXPECT_EQ(reader.resyncs(), 0u) << "outer framing was intact";
  EXPECT_EQ(txns, 3u);
}

// A hello with a non-finite object size, or an end whose sim_seconds is
// non-finite or negative, would print a bare "nan" into the report: the
// reader drops either frame as damage, like a failed inner CRC.
TEST(SessionWire, NonFiniteSizesAndEndTimesAreDamage) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    double cube_mm, height_mm, sim_seconds;
    FrameType survivor;
  };
  for (const Case& c : {Case{nan, 1.5, 1.0, FrameType::kEnd},
                        Case{6.0, -inf, 1.0, FrameType::kEnd},
                        Case{6.0, 1.5, nan, FrameType::kHello},
                        Case{6.0, 1.5, inf, FrameType::kHello},
                        Case{6.0, 1.5, -0.5, FrameType::kHello}}) {
    SessionRecorder rec;
    rec.hello({.rig_index = 0,
               .seed = 1,
               .cube_mm = c.cube_mm,
               .height_mm = c.height_mm,
               .name = "r",
               .sabotage = "clean",
               .chaos = "none"});
    rec.end({.print_finished = true,
             .safe_stopped = false,
             .sim_seconds = c.sim_seconds,
             .final_counts = {}});
    FrameReader reader;
    const std::vector<Frame> frames = parse_all(reader, rec.bytes());
    ASSERT_EQ(frames.size(), 1u) << c.cube_mm << " " << c.sim_seconds;
    EXPECT_EQ(frames[0].type, c.survivor);
    EXPECT_EQ(reader.resyncs(), 1u);
    EXPECT_EQ(reader.ended(), c.survivor == FrameType::kEnd);
  }
}

TEST(SessionWire, LyingLengthPrefixIsBoundedNotAllocated) {
  // A hand-built frame claiming a ~1 GiB hello payload: the per-type cap
  // must reject it (resync hunt) before any allocation happens.
  std::vector<std::uint8_t> bytes;
  offramps::core::wire::append_stream_header(bytes);
  bytes.push_back(0xA7);
  bytes.push_back(0xF5);
  bytes.push_back(static_cast<std::uint8_t>(FrameType::kHello));
  const std::uint32_t lie = 1u << 30;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>((lie >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 64; ++i) bytes.push_back(0xEE);
  // Then a valid end frame the hunt can land on.
  offramps::core::wire::append_end(bytes, SessionMeta{});

  FrameReader reader;
  std::size_t ends = 0;
  reader.feed(bytes.data(), bytes.size(), [&](const Frame& f) {
    if (f.type == FrameType::kEnd) ++ends;
  });
  EXPECT_TRUE(reader.ended());
  EXPECT_GE(reader.resyncs(), 1u);
  EXPECT_EQ(ends, 1u);
}

TEST(SessionWire, SaveWritesReloadableStream) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "wire_save.ofs").string();
  SessionRecorder rec;
  rec.hello({.rig_index = 0,
             .seed = 1,
             .cube_mm = 8.0,
             .height_mm = 3.0,
             .name = "saved",
             .sabotage = "clean",
             .chaos = "none"});
  rec.end(SessionMeta{});
  rec.save(path);

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes, rec.bytes());
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size(), [](const Frame&) {});
  EXPECT_TRUE(reader.ended());
  std::filesystem::remove(path);
}

TEST(SessionWire, ListCorpusFilesSortsAndFilters) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "wire_corpus_ls";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const char* name : {"bravo.ofs", "alpha.ofs", "notes.txt"}) {
    std::ofstream(dir / name) << "x";
  }
  std::filesystem::create_directories(dir / "sub.ofs");  // not a file

  const std::vector<std::string> files = list_session_corpus(dir.string());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_NE(files[0].find("alpha.ofs"), std::string::npos);
  EXPECT_NE(files[1].find("bravo.ofs"), std::string::npos);

  EXPECT_THROW(list_corpus_files((dir / "missing").string(), ".ofs"), Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
