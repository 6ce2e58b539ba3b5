// svc::RigSession: wire bytes in, supervised verdict out.  Pins the
// damage ladder without touching the simulator - a synthetic golden
// capture and a recorded stream that replays it stand in for a live
// rig.  Clean streams land on kOk with the end-frame facts mapped into
// the outcome; CRC-dropped transactions land on kRecovered; disconnects,
// protocol violations, malformed hello specs, bad capture blobs,
// reference-resolution failures, an end without a finish and a detector
// frame after the finish all land on kLost.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/session_wire.hpp"
#include "host/chaos.hpp"
#include "sim/error.hpp"
#include "svc/fleet.hpp"
#include "svc/json.hpp"
#include "svc/session.hpp"

namespace {

using offramps::Error;
using offramps::core::Capture;
using offramps::core::Transaction;
using offramps::core::wire::SessionHello;
using offramps::core::wire::SessionMeta;
using offramps::core::wire::SessionRecorder;
using offramps::host::ChaosInjector;
using offramps::host::parse_chaos;
using offramps::plant::SideTrace;
using offramps::svc::FleetReport;
using offramps::svc::RigOutcome;
using offramps::svc::RigSession;
using offramps::svc::RigStatus;
using offramps::svc::SessionOptions;
using offramps::svc::SampleKind;
using offramps::svc::SessionRefs;

/// A plausible golden print: monotone counts, steady cadence.
Capture synthetic_golden(std::size_t n = 48) {
  Capture cap;
  cap.label = "session-golden";
  cap.print_completed = true;
  for (std::size_t i = 0; i < n; ++i) {
    Transaction t;
    t.index = static_cast<std::uint32_t>(i);
    t.counts = {static_cast<std::int32_t>(4 * i),
                static_cast<std::int32_t>(3 * i),
                static_cast<std::int32_t>(i / 16),
                static_cast<std::int32_t>(2 * i)};
    t.time_ns = 2'000'000ull * (i + 1);
    cap.transactions.push_back(t);
  }
  const Transaction& last = cap.transactions.back();
  cap.final_counts = {last.counts[0], last.counts[1], last.counts[2],
                      last.counts[3]};
  return cap;
}

SessionHello clean_hello() {
  return {.rig_index = 0,
          .seed = 11,
          .cube_mm = 8.0,
          .height_mm = 3.0,
          .name = "sess-rig",
          .sabotage = "clean",
          .chaos = "none"};
}

/// Records the stream a live rig driving `golden`'s transactions through
/// its detector would have produced.
std::vector<std::uint8_t> clean_stream(const Capture& golden) {
  SessionRecorder rec;
  rec.hello(clean_hello());
  for (const Transaction& t : golden.transactions) {
    rec.txn(t);
    rec.slot();
  }
  rec.finish(golden);
  rec.end({.print_finished = true,
           .safe_stopped = false,
           .sim_seconds = 42.5,
           .final_counts = {golden.final_counts[0], golden.final_counts[1],
                            golden.final_counts[2], golden.final_counts[3]}});
  return rec.bytes();
}

SessionOptions quiet_options() {
  SessionOptions options;
  // The golden-free machine model is tuned for real kinematics; the
  // synthetic trace here only exercises stream plumbing, so keep the
  // verdict pinned to the golden-compare channel.
  options.detector.golden_free = false;
  return options;
}

/// Feeds a whole stream then closes, returning the verdict.
RigOutcome run_session(const std::vector<std::uint8_t>& bytes,
                       const Capture& golden, std::size_t chunk = 0) {
  RigSession session(quiet_options(), [&](const SessionHello&) {
    return SessionRefs{.golden = &golden, .oracle = nullptr,
                       .golden_power = nullptr};
  });
  std::size_t off = 0;
  while (off < bytes.size() && !session.done()) {
    const std::size_t n =
        chunk == 0 ? bytes.size() - off : std::min(chunk, bytes.size() - off);
    const std::size_t used = session.feed(bytes.data() + off, n);
    off += used;
    if (used == 0) break;
  }
  session.close();
  return session.outcome();
}

TEST(RigSession, CleanStreamIsOkWithEndFactsMapped) {
  const Capture golden = synthetic_golden();
  const RigOutcome out = run_session(clean_stream(golden), golden);

  EXPECT_EQ(out.status, RigStatus::kOk);
  EXPECT_TRUE(out.failure_cause.empty()) << out.failure_cause;
  EXPECT_EQ(out.spec.name, "sess-rig");
  EXPECT_EQ(out.spec.seed, 11u);
  EXPECT_FALSE(out.detector.alarmed)
      << "a stream replaying its own golden must not alarm";
  EXPECT_TRUE(out.detector.stream_finished);
  EXPECT_TRUE(out.print_finished);
  EXPECT_FALSE(out.safe_stopped);
  EXPECT_DOUBLE_EQ(out.sim_seconds, 42.5);
  EXPECT_EQ(out.final_counts,
            (std::array<std::int64_t, 4>{
                golden.final_counts[0], golden.final_counts[1],
                golden.final_counts[2], golden.final_counts[3]}));
  EXPECT_EQ(out.attempts, 1u);
}

// Session frames arrive from sockets and --replay files.  A sample timed
// far past the print, before the first sample, or not at all (NaN, inf)
// must neither hang the side channel - which once closed every empty
// window up to the claimed time one by one - nor count against the
// print.
TEST(RigSession, HostileSampleTimesReturnPromptly) {
  const Capture golden = synthetic_golden();
  SideTrace acoustic;
  for (int i = 0; i < 200; ++i) acoustic.push_back({i * 0.05, 40.0});
  const auto kind = static_cast<std::uint8_t>(SampleKind::kAcoustic);
  for (const double t : {1e8, 1e9, 1e12, -5.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
    SessionRecorder rec;
    rec.hello(clean_hello());
    rec.sample(kind, 0.0, 40.0);
    rec.sample(kind, t, 40.0);
    rec.finish(golden);
    rec.end({.print_finished = true,
             .safe_stopped = false,
             .sim_seconds = 42.5,
             .final_counts = {golden.final_counts[0], golden.final_counts[1],
                              golden.final_counts[2],
                              golden.final_counts[3]}});
    RigSession session(quiet_options(), [&](const SessionHello&) {
      return SessionRefs{.golden = &golden, .golden_acoustic = &acoustic};
    });
    session.feed(rec.bytes().data(), rec.bytes().size());
    session.close();
    const RigOutcome out = session.outcome();
    EXPECT_EQ(out.status, RigStatus::kOk) << "t=" << t;
    EXPECT_FALSE(out.detector.alarmed) << "t=" << t;
  }
}

TEST(RigSession, ChunkedFeedMatchesWholeBuffer) {
  const Capture golden = synthetic_golden();
  const std::vector<std::uint8_t> bytes = clean_stream(golden);
  const RigOutcome whole = run_session(bytes, golden);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{64}}) {
    const RigOutcome out = run_session(bytes, golden, chunk);
    EXPECT_EQ(out.status, whole.status) << "chunk " << chunk;
    EXPECT_EQ(out.detector.alarmed, whole.detector.alarmed);
    EXPECT_EQ(out.detector.windows_processed, whole.detector.windows_processed)
        << "the verdict must be a pure function of the call sequence";
    EXPECT_EQ(out.detector.ring_high_water, whole.detector.ring_high_water);
  }
}

TEST(RigSession, FrameCorruptChaosRecovers) {
  const Capture golden = synthetic_golden();
  std::vector<std::uint8_t> bytes = clean_stream(golden);
  auto spec = parse_chaos("framecorrupt");
  spec.after = 5;
  ChaosInjector(spec, 0).mangle_session(bytes);

  const RigOutcome out = run_session(bytes, golden);
  EXPECT_EQ(out.status, RigStatus::kRecovered);
  EXPECT_NE(out.failure_cause.find("dropped 1 corrupt transaction"),
            std::string::npos)
      << out.failure_cause;
  EXPECT_TRUE(out.print_finished) << "the session still completed";
}

TEST(RigSession, DisconnectChaosIsLost) {
  const Capture golden = synthetic_golden();
  std::vector<std::uint8_t> bytes = clean_stream(golden);
  ChaosInjector(parse_chaos("disconnect"), 0).mangle_session(bytes);

  const RigOutcome out = run_session(bytes, golden);
  EXPECT_EQ(out.status, RigStatus::kLost);
  EXPECT_NE(out.failure_cause.find("disconnected"), std::string::npos)
      << out.failure_cause;
}

TEST(RigSession, StreamWithoutHelloIsLost) {
  SessionRecorder rec;
  rec.end(SessionMeta{});
  const Capture golden = synthetic_golden();
  const RigOutcome out = run_session(rec.bytes(), golden);
  EXPECT_EQ(out.status, RigStatus::kLost);
  EXPECT_EQ(out.attempts, 0u) << "no hello, no rig to bill an attempt to";
}

TEST(RigSession, MalformedSpecInHelloIsLost) {
  const Capture golden = synthetic_golden();
  SessionRecorder rec;
  SessionHello hello = clean_hello();
  hello.sabotage = "bogus-grammar";
  rec.hello(hello);
  rec.end(SessionMeta{});
  const RigOutcome out = run_session(rec.bytes(), golden);
  EXPECT_EQ(out.status, RigStatus::kLost);
  EXPECT_NE(out.failure_cause.find("malformed spec"), std::string::npos)
      << out.failure_cause;
}

TEST(RigSession, ResolverFailureQuarantinesSession) {
  SessionRecorder rec;
  rec.hello(clean_hello());
  rec.end(SessionMeta{});
  const std::vector<std::uint8_t>& bytes = rec.bytes();

  RigSession session(quiet_options(), [](const SessionHello&) -> SessionRefs {
    throw Error("reference print lost");
  });
  session.feed(bytes.data(), bytes.size());
  session.close();
  const RigOutcome out = session.outcome();
  EXPECT_EQ(out.status, RigStatus::kLost);
  EXPECT_NE(out.failure_cause.find("reference print lost"), std::string::npos)
      << out.failure_cause;
}

TEST(RigSession, NullGoldenReferenceIsLost) {
  SessionRecorder rec;
  rec.hello(clean_hello());
  rec.end(SessionMeta{});
  const std::vector<std::uint8_t>& bytes = rec.bytes();

  RigSession session(quiet_options(),
                     [](const SessionHello&) { return SessionRefs{}; });
  session.feed(bytes.data(), bytes.size());
  session.close();
  EXPECT_EQ(session.outcome().status, RigStatus::kLost);
}

TEST(RigSession, CorruptCaptureBlobIsProtocolFailure) {
  const Capture golden = synthetic_golden();
  SessionRecorder rec;
  rec.hello(clean_hello());
  for (const Transaction& t : golden.transactions) rec.txn(t);
  // Hand-craft a kFinish frame whose payload is not a valid capture: the
  // outer framing is intact, so this is the peer lying, not wire damage.
  std::vector<std::uint8_t> bytes = rec.bytes();
  const std::vector<std::uint8_t> garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  bytes.push_back(0xA7);
  bytes.push_back(0xF5);
  bytes.push_back(5);  // FrameType::kFinish
  bytes.push_back(static_cast<std::uint8_t>(garbage.size()));
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.insert(bytes.end(), garbage.begin(), garbage.end());
  offramps::core::wire::append_end(bytes, SessionMeta{});

  const RigOutcome out = run_session(bytes, golden);
  EXPECT_EQ(out.status, RigStatus::kLost);
}

TEST(RigSession, SabotagedStreamAlarmsButStaysOk) {
  // Stream health and detection verdict are orthogonal: a rig whose
  // counts drift from the golden alarms, yet its *session* is clean.
  const Capture golden = synthetic_golden();
  Capture observed = golden;
  for (std::size_t i = 16; i < observed.transactions.size(); ++i) {
    Transaction& t = observed.transactions[i];
    t.counts[3] = t.counts[3] / 2;  // Flaw3D-style extrusion reduction
  }
  const Transaction& last = observed.transactions.back();
  observed.final_counts = {last.counts[0], last.counts[1], last.counts[2],
                           last.counts[3]};

  SessionRecorder rec;
  rec.hello(clean_hello());
  for (const Transaction& t : observed.transactions) {
    rec.txn(t);
    rec.slot();
  }
  rec.finish(observed);
  rec.end({.print_finished = true,
           .safe_stopped = false,
           .sim_seconds = 42.5,
           .final_counts = {observed.final_counts[0], observed.final_counts[1],
                            observed.final_counts[2],
                            observed.final_counts[3]}});

  const RigOutcome out = run_session(rec.bytes(), golden);
  EXPECT_EQ(out.status, RigStatus::kOk);
  EXPECT_TRUE(out.detector.alarmed)
      << "halved extrusion against the golden must trip the compare channel";
}

/// The stream of a rig whose print ends 50 E steps short of `golden`,
/// with or without its kFinish frame.
std::vector<std::uint8_t> short_print_stream(const Capture& golden,
                                             bool with_finish) {
  Capture observed = golden;
  observed.final_counts[3] -= 50;
  SessionRecorder rec;
  rec.hello(clean_hello());
  for (const Transaction& t : observed.transactions) {
    rec.txn(t);
    rec.slot();
  }
  if (with_finish) rec.finish(observed);
  rec.end({.print_finished = true,
           .safe_stopped = false,
           .sim_seconds = 42.5,
           .final_counts = {observed.final_counts[0], observed.final_counts[1],
                            observed.final_counts[2],
                            observed.final_counts[3]}});
  return rec.bytes();
}

// The end-of-print channels run on kFinish.  A stream that ends without
// it (stripped, or skipped as framing damage) was never judged on its
// final counts, so it must not pass as a clean, quiet session.
TEST(RigSession, EndWithoutFinishIsLost) {
  const Capture golden = synthetic_golden();
  const RigOutcome judged = run_session(short_print_stream(golden, true),
                                        golden);
  EXPECT_EQ(judged.status, RigStatus::kOk);
  EXPECT_TRUE(judged.detector.alarmed);
  EXPECT_EQ(judged.detector.first_channel,
            offramps::svc::Channel::kFinalCounts);

  const RigOutcome out = run_session(short_print_stream(golden, false),
                                     golden);
  EXPECT_EQ(out.status, RigStatus::kLost);
  EXPECT_EQ(out.failure_cause, "session: end before finish");
  EXPECT_EQ(out.attempts, 1u);
}

// After kFinish the detector has run its end-of-print checks; a window,
// sample or slot that follows would be judged against a finished print.
TEST(RigSession, DetectorFrameAfterFinishIsLost) {
  const Capture golden = synthetic_golden();
  const std::vector<void (*)(SessionRecorder&)> late_frames = {
      [](SessionRecorder& rec) { rec.txn(Transaction{}); },
      [](SessionRecorder& rec) { rec.power(1.0, 20.0); },
      [](SessionRecorder& rec) {
        rec.sample(static_cast<std::uint8_t>(SampleKind::kAcoustic), 1.0,
                   40.0);
      },
      [](SessionRecorder& rec) { rec.slot(); },
  };
  for (std::size_t i = 0; i < late_frames.size(); ++i) {
    SessionRecorder rec;
    rec.hello(clean_hello());
    for (const Transaction& t : golden.transactions) {
      rec.txn(t);
      rec.slot();
    }
    rec.finish(golden);
    late_frames[i](rec);
    rec.end({.print_finished = true,
             .safe_stopped = false,
             .sim_seconds = 42.5,
             .final_counts = {golden.final_counts[0], golden.final_counts[1],
                              golden.final_counts[2],
                              golden.final_counts[3]}});
    const RigOutcome out = run_session(rec.bytes(), golden);
    EXPECT_EQ(out.status, RigStatus::kLost) << "late frame " << i;
    EXPECT_EQ(out.failure_cause, "session: detector frame after finish")
        << "late frame " << i;
  }
}

// A hello naming an object the printer cannot hold - or one whose size
// would not fit a fixed report buffer - loses the session before anything
// resolves (or slices) a reference, and the report still renders valid
// JSON with the size in full.
TEST(RigSession, OutOfRangeObjectIsLostBeforeResolving) {
  struct Case {
    double cube_mm, height_mm;
    const char* key;
  };
  for (const Case& c : {Case{1e300, 3.0, "cube_mm"}, Case{1e6, 3.0, "cube_mm"},
                        Case{0.0, 3.0, "cube_mm"}, Case{8.0, 1e300, "height_mm"},
                        Case{8.0, -1.0, "height_mm"}}) {
    SessionRecorder rec;
    SessionHello hello = clean_hello();
    hello.cube_mm = c.cube_mm;
    hello.height_mm = c.height_mm;
    rec.hello(hello);
    rec.end(SessionMeta{});
    const std::vector<std::uint8_t>& bytes = rec.bytes();

    bool resolved = false;
    RigSession session(quiet_options(), [&resolved](const SessionHello&) {
      resolved = true;
      return SessionRefs{};
    });
    session.feed(bytes.data(), bytes.size());
    session.close();
    const RigOutcome out = session.outcome();
    EXPECT_FALSE(resolved) << c.key;
    EXPECT_EQ(out.status, RigStatus::kLost);
    EXPECT_NE(out.failure_cause.find(c.key), std::string::npos)
        << out.failure_cause;

    FleetReport report;
    report.rigs.push_back(out);
    const offramps::svc::json::Value doc =
        offramps::svc::json::parse(report.to_json());
    const offramps::svc::json::Value& rig = doc.find("rigs")->items.at(0);
    EXPECT_EQ(rig.number_or("cube_mm", 0.0), c.cube_mm);
    EXPECT_EQ(rig.number_or("height_mm", 0.0), c.height_mm);
    EXPECT_EQ(rig.string_or("sabotage", ""), "clean");
  }
}

TEST(RigSession, ZeroWindowsPerSlotIsRejected) {
  SessionOptions options;
  options.windows_per_slot = 0;
  EXPECT_THROW(RigSession(options, [](const SessionHello&) {
                 return SessionRefs{};
               }),
               Error);
}

}  // namespace
