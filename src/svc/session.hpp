// One rig's detector session: the one door into its detector, and the
// replay of a recorded stream through that door.
//
// A rig's detector input arrives either live, from the simulated rig
// (svc::Fleet), or replayed from a recorded core::wire session
// (RigSession).  Both reach the OnlineDetector only through a
// DetectorFeed, its sole caller: each txn / sample / slot / finish call
// first appends the matching wire frame when a recorder is attached, then
// drives the detector.  A recorded .ofs stream is therefore the
// detector's call sequence by construction: every kTxn is a producer
// submit (stalling losslessly when the ring fills, i.e. the SPSC
// backpressure contract extends across the wire), every kPower or
// kSample a side-channel sample, every kSlot one consumer poll.  The
// detector's observable state - verdict, windows processed, ring
// high-water, stall count - is a pure function of that call sequence,
// so a RigSession reproduces the live attempt's verdict without the
// simulator.  The supervision record is not in the stream: see daemon.hpp
// for what a replay does and does not reproduce.
//
// RigSession damage ladder (mirrors the supervisor's classification):
//
//   clean stream                      -> kOk
//   outer-frame resyncs / CRC-dropped -> kRecovered (counts in the
//   transactions                         failure cause)
//   disconnect, protocol error, bad   -> kLost (quarantined; the
//   capture blob, object size outside    detector verdict is void)
//   the printer, reference failure,
//   an end without a finish, a
//   detector frame after the finish
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "core/session_wire.hpp"
#include "sim/error.hpp"
#include "svc/fleet.hpp"

namespace offramps::svc {

class DetectorFeed {
 public:
  /// Returns `options`; throws offramps::Error when windows_per_slot is 0.
  static const SessionOptions& checked(const SessionOptions& options) {
    if (options.windows_per_slot == 0) {
      throw Error("detector feed: windows_per_slot must be > 0");
    }
    return options;
  }

  /// The `refs` pointees, and `recorder` when given, must outlive the
  /// feed.
  DetectorFeed(const SessionOptions& options, ChannelRefs refs,
               core::wire::SessionRecorder* recorder = nullptr)
      : detector_(checked(options).detector, refs),
        windows_per_slot_(options.windows_per_slot),
        recorder_(recorder) {}

  /// One capture transaction; stalls losslessly when the ring is full.
  void txn(const core::Transaction& txn) {
    if (recorder_ != nullptr) recorder_->txn(txn);
    detector_.submit(txn);
  }

  /// One side-channel sample.  Power keeps its dedicated kPower frame so
  /// pre-multi-modal corpora stay replayable; the other kinds ride kSample.
  void sample(SampleKind kind, double t_s, double value) {
    if (recorder_ != nullptr && kind == SampleKind::kPower) {
      recorder_->power(t_s, value);
    } else if (recorder_ != nullptr) {
      recorder_->sample(static_cast<std::uint8_t>(kind), t_s, value);
    }
    detector_.submit_sample(kind, t_s, value);
  }

  /// One consumer service slot: drains up to windows_per_slot windows.
  void slot() {
    if (recorder_ != nullptr) recorder_->slot();
    detector_.poll(windows_per_slot_);
  }

  /// End of stream: the frozen capture, for the end-of-print checks.
  void finish(const core::Capture& capture) {
    if (recorder_ != nullptr) recorder_->finish(capture);
    detector_.finish(capture);
  }

  void on_alarm(OnlineDetector::AlarmCallback cb) {
    detector_.on_alarm(std::move(cb));
  }
  [[nodiscard]] const OnlineDetector& detector() const { return detector_; }

 private:
  OnlineDetector detector_;
  std::size_t windows_per_slot_;
  core::wire::SessionRecorder* recorder_;
};

/// References resolved for one session's object, after its hello.  The
/// pointees must outlive the session.  `golden` is required; `oracle`
/// and the side-channel traces may be null or empty (channel disarmed,
/// exactly like FleetOptions use_oracle).
using SessionRefs = ChannelRefs;

class RigSession {
 public:
  /// Resolves the golden references for a just-arrived hello whose
  /// object passed check_object().  Called at most once per session,
  /// from the session's worker thread; may throw (e.g. reference print
  /// lost), which quarantines the session.
  using ResolveRefs =
      std::function<SessionRefs(const core::wire::SessionHello&)>;

  /// Throws offramps::Error when options.windows_per_slot is 0.
  RigSession(SessionOptions options, ResolveRefs resolve);

  RigSession(const RigSession&) = delete;
  RigSession& operator=(const RigSession&) = delete;

  /// Feeds a chunk.  Returns bytes consumed; short only when the session
  /// reached its kEnd (leftover bytes belong to the next concatenated
  /// stream on the same pipe).  Never throws on bad input - damage is
  /// classified into the outcome instead.
  std::size_t feed(const std::uint8_t* data, std::size_t n);

  /// End of input (peer closed).  Before kEnd this is a mid-stream
  /// disconnect.
  void close();

  /// True once the session can make no further progress (kEnd seen or
  /// the stream failed terminally).
  [[nodiscard]] bool done() const {
    return reader_.ended() || reader_.failed() || failed_;
  }
  [[nodiscard]] bool has_hello() const { return has_hello_; }
  [[nodiscard]] const core::wire::SessionHello& hello() const {
    return hello_;
  }

  /// The supervised verdict for this stream (see damage ladder above).
  [[nodiscard]] RigOutcome outcome() const;

 private:
  void on_frame(const core::wire::Frame& frame);
  void fail(const std::string& why);

  SessionOptions options_;
  ResolveRefs resolve_;
  core::wire::FrameReader reader_;

  bool has_hello_ = false;
  core::wire::SessionHello hello_;
  std::optional<DetectorFeed> feed_;
  bool saw_finish_ = false;
  bool saw_end_ = false;
  core::wire::SessionMeta meta_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace offramps::svc
