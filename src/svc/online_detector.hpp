// Online streaming Trojan detection (the fleet service's per-rig brain).
//
// The paper's detection is one-shot: capture the whole print, then
// compare.  Its Discussion notes the board "cannot currently support
// [detection]" without a host in the loop - this class is that host-side
// loop, made streaming: capture transactions are consumed incrementally
// through a bounded SPSC ring buffer as the rig emits them, and every
// window is judged the moment it is drained, so sabotage is flagged
// *while the print is running* instead of after the material is wasted.
//
// Each way of judging the stream is one `DetectionChannel`
// (svc/channel.hpp); the constructor builds the enabled ones with
// `make_channels` and arms them against the references.  The detector
// delivers each transaction window and the end of stream to every
// channel, and each side-channel sample to the channels that read its
// kind, in list order; then it *fuses* the trips they emit into one
// first-alarm verdict (earliest window wins; ties go to the channel
// earlier in the list) with per-channel attribution in the report.  The
// channels, in list order:
//
//   * golden compare  - windowed step-count compare against a golden
//                       capture (the paper's section V-C method, via
//                       detect::compare_transaction);
//   * stream length   - sustained stream overrun (print-lengthening
//                       Trojans);
//   * golden-free     - the physical-plausibility rules of
//                       detect::StreamingGoldenFree (no reference
//                       needed);
//   * power signature - per-window mean-power compare against a golden
//                       power trace (the side-channel baseline class);
//   * acoustic        - audio-signing master-signature verification of
//                       the machine's acoustic emission;
//   * vibration       - per-window vibration-signature compare;
//   * final checks    - at end of stream, the paper's exact 0%-margin
//                       final-count check and the static-oracle
//                       cross-check.  These are post-print by nature
//                       and are reported as such.
//
// Backpressure: the ring has fixed capacity.  When a push finds it full
// the producer STALLS - the backlog is drained inline (consumer
// catch-up) until a slot frees, and the stall is counted.  Transactions
// are never dropped or duplicated; memory per rig stays bounded at the
// ring capacity.  The occupancy high-water mark and stall counter
// surface in the report so a fleet operator can see which detectors run
// hot.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analyze/oracle.hpp"
#include "core/capture.hpp"
#include "obs/metrics.hpp"
#include "detect/compare.hpp"
#include "detect/golden_free.hpp"
#include "detect/side_channel.hpp"
#include "detect/static_check.hpp"
#include "sim/ring_buffer.hpp"
#include "svc/channel.hpp"

namespace offramps::svc {

/// Detector tuning.
struct OnlineDetectorOptions {
  /// Which channel groups to instantiate (see svc/channel.hpp).
  ChannelSet channels{};

  /// Windowed golden comparison (paper defaults: 5% margin).
  detect::CompareOptions compare{};
  /// Consecutive suspicious windows before the golden-compare channel
  /// alarms (debounces isolated drift spikes).
  std::uint32_t consecutive_to_alarm = 2;
  /// Windows past the golden length (beyond the compare length
  /// tolerance) before the overrun channel alarms.
  std::uint32_t length_slack_windows = 8;

  /// Golden-free channel (set false to disable).
  bool golden_free = true;
  detect::MachineModel machine{};
  /// Violations before the golden-free channel alarms.
  std::size_t golden_free_min_violations = 3;

  /// Power channel tuning (armed only when a golden trace is provided).
  detect::SideSignatureOptions power = detect::kPowerSignature;
  /// Acoustic master-signature channel tuning.  The tolerance rides the
  /// jitter-driven spread between two honest prints of the same part,
  /// which the acoustic tone weights amplify harder than power does.
  detect::SideSignatureOptions acoustic{1.0, 5.0, 3, 2};
  /// Vibration channel tuning (the gantry axes swing the largest
  /// levels, so honest spread is widest here).
  detect::SideSignatureOptions vibration{1.0, 8.0, 3, 2};

  /// End-of-print checks (exact golden finals, static oracle).
  bool final_checks = true;
  detect::StaticCheckOptions static_check{};

  /// Transactions the ring buffer holds before backpressure engages.
  std::size_t ring_capacity = 64;
};

/// Detector health/verdict snapshot - the per-rig record the fleet
/// report aggregates.
struct OnlineReport {
  bool alarmed = false;
  /// True when the first alarm fired while the stream was live (before
  /// finish()): the operator could have stopped the print.
  bool alarmed_mid_print = false;
  Channel first_channel = Channel::kNone;
  std::uint32_t alarm_window = 0;    // transaction index of the alarm
  std::uint64_t alarm_tick_ns = 0;   // sim time of the alarming window
  /// 1-based g-code program line the machine was executing at the alarm
  /// (estimated from the static oracle's segment trace; 0 = unknown).
  std::size_t alarm_gcode_line = 0;

  std::size_t windows_processed = 0;
  std::size_t ring_high_water = 0;
  std::uint64_t backpressure_stalls = 0;
  bool stream_finished = false;

  /// Per-channel attribution rows, one per instantiated channel, in
  /// make_channels order.
  std::vector<ChannelVerdict> channels;

  /// The row of channel `c`; nullptr when that channel was not
  /// instantiated.
  [[nodiscard]] const ChannelVerdict* verdict(Channel c) const;
  [[nodiscard]] std::string to_string() const;
};

/// Estimates the 1-based g-code line being executed when the armed
/// counters read `counts`, by walking the oracle's counted segments on
/// the near-monotone E+Z progress axes.  0 when the oracle never armed.
std::size_t estimate_gcode_line(const analyze::Oracle& oracle,
                                const std::array<std::int32_t, 4>& counts);

/// Streaming multi-channel detector over one rig's capture feed.
class OnlineDetector {
 public:
  using AlarmCallback = std::function<void(const OnlineReport&)>;

  /// Builds the channels `options` enables and arms them against `refs`
  /// (golden capture, static oracle for the final check and g-code line
  /// attribution, golden side-channel traces); every pointee must
  /// outlive the detector and hold its final contents by now.
  explicit OnlineDetector(OnlineDetectorOptions options = {},
                          ChannelRefs refs = {});

  OnlineDetector(const OnlineDetector&) = delete;
  OnlineDetector& operator=(const OnlineDetector&) = delete;

  /// Alarm hook, fired once on the first alarm (any channel).  The fleet
  /// orchestrator uses this for mid-print safe-stop.
  void on_alarm(AlarmCallback cb) { on_alarm_ = std::move(cb); }

  /// Producer side: queues one transaction.  Stalls (drains inline) when
  /// the ring is full - see the backpressure contract above.
  void submit(const core::Transaction& txn);

  /// Producer side: one side-channel sample (seconds, channel units).
  void submit_sample(SampleKind kind, double t_s, double value);

  /// Consumer side: processes up to `max_windows` queued transactions.
  /// Returns the number processed.
  std::size_t poll(std::size_t max_windows);

  /// Consumer side: drains the whole backlog.
  std::size_t drain();

  /// End of stream: drains, then runs the end-of-print checks against
  /// the finalized capture (exact golden finals, static oracle).
  void finish(const core::Capture& capture);

  [[nodiscard]] bool alarmed() const { return report_.alarmed; }
  [[nodiscard]] std::size_t queued() const { return ring_.size(); }
  [[nodiscard]] std::size_t windows_processed() const {
    return report_.windows_processed;
  }

  /// Current snapshot (valid at any point in the stream).
  [[nodiscard]] OnlineReport report() const;

 private:
  /// Dispatches to process_impl(), wrapped in the obs:: window timer
  /// when metrics are enabled (never touches detection state itself, so
  /// instrumentation cannot change a verdict).
  void process(const core::Transaction& txn);
  void process_impl(const core::Transaction& txn);
  /// Fuses the trips one event produced into the first-alarm verdict.
  void fuse(const std::vector<ChannelTrip>& trips);
  void raise(const ChannelTrip& trip);

  sim::RingBuffer<core::Transaction> ring_;
  ChannelRefs refs_;
  std::vector<std::unique_ptr<DetectionChannel>> channels_;
  /// sample_routes_[k]: the channels that read sample kind k, in list
  /// order (sized past the largest kind any channel reads).
  std::vector<std::vector<DetectionChannel*>> sample_routes_;
  AlarmCallback on_alarm_;

  OnlineReport report_;
  StreamContext ctx_;
  std::uint64_t backpressure_stalls_ = 0;
  bool finished_ = false;
  bool draining_ = false;

  // Registry handles, bound lazily on the first metered window so a
  // detector that never runs with metrics enabled registers nothing
  // (keeping the exported document identical to pre-instrumentation
  // runs).  The countdown samples the wall-clock window timer 1 window
  // in obs::kLatencySampleEvery; the window *counter* stays exact.
  obs::Counter* obs_windows_ = nullptr;
  obs::Histogram* obs_window_us_ = nullptr;
  std::uint32_t obs_sample_countdown_ = 1;
};

}  // namespace offramps::svc
