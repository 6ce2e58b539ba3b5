// One rig session: wire bytes in, supervised rig verdict out.
//
// A RigSession replays a core::wire session stream into a fresh
// OnlineDetector in EXACTLY the order the live rig drove its own: every
// kTxn is a producer submit (stalling losslessly when the ring fills,
// i.e. the SPSC backpressure contract extends across the wire), every
// kPower or kSample a side-channel sample, every kSlot one consumer poll
// of the pump's window budget.  Because the detector's observable state
// - verdict, windows processed, ring high-water, stall count - is a pure
// function of that call sequence, a session replayed from a recorded
// stream yields a RigOutcome byte-identical to the live campaign's,
// without running the simulator.
//
// Damage ladder (mirrors the supervisor's classification):
//
//   clean stream                      -> kOk
//   outer-frame resyncs / CRC-dropped -> kRecovered (counts in the
//   transactions                         failure cause)
//   disconnect, protocol error, bad   -> kLost (quarantined; the
//   capture blob, reference failure      detector verdict is void)
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/session_wire.hpp"
#include "svc/fleet.hpp"
#include "svc/online_detector.hpp"

namespace offramps::svc {

/// References resolved for one session's object, after its hello.  The
/// pointees must outlive the session.  `golden` is required; `oracle`
/// and the side-channel traces may be null or empty (channel disarmed,
/// exactly like FleetOptions use_oracle).
using SessionRefs = ChannelRefs;

struct SessionOptions {
  /// Detector tuning; must match the live campaign's for replay
  /// byte-identity (ring capacity shapes high-water/stall counts).
  OnlineDetectorOptions detector{};
  /// Windows drained per kSlot marker - the live pump's
  /// PumpOptions::windows_per_slot.
  std::size_t windows_per_slot = 4;
};

class RigSession {
 public:
  /// Resolves the golden references for a just-arrived hello.  Called at
  /// most once per session, from the session's worker thread; may throw
  /// (e.g. reference print lost), which quarantines the session.
  using ResolveRefs =
      std::function<SessionRefs(const core::wire::SessionHello&)>;

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
  std::unique_ptr<OnlineDetector> detector_;
  bool saw_finish_ = false;
  bool saw_end_ = false;
  core::wire::SessionMeta meta_;
  bool failed_ = false;
  std::string error_;
};

}  // namespace offramps::svc
