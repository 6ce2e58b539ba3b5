// Detection channels of the online detector.
//
// Every way `OnlineDetector` judges a print - windowed step-count
// compare, stream-length overrun, golden-free plausibility, power
// signature, acoustic master signature, vibration signature, the
// end-of-print checks - is one `DetectionChannel` object behind a common
// interface.  The detector delivers each transaction window and the end
// of stream to every enabled channel, and each side-channel sample to the
// channels that read its kind.  It collects the `ChannelTrip`s they emit
// and fuses them into one first-alarm verdict: the earliest tripped
// window wins, ties go to the channel earlier in the list.  Each channel
// also contributes a `ChannelVerdict` attribution row to the report, so a
// fleet operator can see which modality caught a Trojan and which ones
// were armed but quiet.
//
// The channel list is fixed: `make_channels` builds it in fusion order
// from the options' `ChannelSet`.  `Channel` is a closed wire enum
// (checkpoints persist it), so a new channel is one appended `Channel`
// value plus one `make_channels` row.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analyze/oracle.hpp"
#include "core/capture.hpp"
#include "plant/side_channel.hpp"

namespace offramps::svc {

/// Which detection channel raised the (first) alarm.  Values are wire
/// format (checkpoints persist them) - append only.
enum class Channel : std::uint8_t {
  kNone,
  kGoldenCompare,  // windowed step-count mismatch vs golden capture
  kStreamLength,   // stream ran measurably longer than golden
  kGoldenFree,     // physical-plausibility rule violations
  kPower,          // power-signature window mismatch
  kFinalCounts,    // end-of-print 0%-margin golden check
  kStaticOracle,   // end-of-print static-oracle cross-check
  kAcoustic,       // acoustic master-signature window mismatch
  kVibration,      // vibration-signature window mismatch
};

/// One past the largest Channel value; checkpoint decoding and the
/// channel-name test derive their bounds from this so a new channel
/// cannot be forgotten silently.
inline constexpr std::uint8_t kChannelCount = 9;

const char* channel_name(Channel c);

using plant::SampleKind;

/// Which channel groups a fleet runs with.  `steps` covers every
/// channel derived from the captured step stream (golden compare,
/// stream length, golden-free, the end-of-print checks); the other
/// three each gate one physical side channel.  The set is read from
/// `--channels` or a spec's "channels" (parse()); the campaign digest
/// hashes its four flags, the reference-cache key its three probe flags.
struct ChannelSet {
  bool steps = true;
  bool power = true;
  bool acoustic = true;
  bool vibration = true;

  /// The Supervisor's degraded-attempt fallback: step counting alone,
  /// no side-channel probes to simulate or compare.
  [[nodiscard]] ChannelSet counts_only() const {
    return ChannelSet{true, false, false, false};
  }
  /// Intersection (a degraded attempt never enables more than the
  /// campaign asked for).
  [[nodiscard]] ChannelSet intersect(const ChannelSet& other) const {
    return ChannelSet{steps && other.steps, power && other.power,
                      acoustic && other.acoustic,
                      vibration && other.vibration};
  }
  /// Parses a comma-separated group list ("power,acoustic,vibration,
  /// steps", any order, "all" = everything).  Throws std::runtime_error
  /// on an unknown group or an empty set.
  static ChannelSet parse(const std::string& text);

  bool operator==(const ChannelSet&) const = default;
};

/// A golden side-channel trace's per-window means (detect::window_means)
/// at `window_s`, computed once per reference rather than per session.
struct WindowMeans {
  double window_s = 0.0;
  std::vector<double> means;
};

/// The references a channel may arm against.  All pointers are borrowed
/// and must outlive the detector; a null (or empty) reference leaves
/// the channels needing it unarmed but reported.  A side channel arms
/// from its `*_means` when they were taken at its window, and otherwise
/// computes them from its golden trace.
struct ChannelRefs {
  const core::Capture* golden = nullptr;
  const analyze::Oracle* oracle = nullptr;
  const plant::SideTrace* golden_power = nullptr;
  const plant::SideTrace* golden_acoustic = nullptr;
  const plant::SideTrace* golden_vibration = nullptr;
  const WindowMeans* power_means = nullptr;
  const WindowMeans* acoustic_means = nullptr;
  const WindowMeans* vibration_means = nullptr;
};

/// Per-channel attribution row of the fused verdict.
struct ChannelVerdict {
  Channel channel = Channel::kNone;
  bool armed = false;       // had its reference / was able to judge
  bool tripped = false;     // found sustained evidence of sabotage
  std::uint32_t trip_window = 0;   // transaction window of its first trip
  std::uint64_t windows_compared = 0;
  std::uint64_t mismatches = 0;
};

/// One "this channel wants to alarm" event, tagged with the stream
/// position the fused verdict will record.
struct ChannelTrip {
  Channel channel = Channel::kNone;
  std::uint32_t window = 0;
  std::uint64_t tick_ns = 0;
  std::array<std::int32_t, 4> counts{};
};

/// Fusion rule shared by the detector and the unit suite: the earliest
/// window wins; ties go to the earliest-delivered trip (channels are
/// delivered to in make_channels order).  nullptr when `trips` is empty.
const ChannelTrip* pick_first_trip(const std::vector<ChannelTrip>& trips);

/// Stream position handed to every channel hook (what the legacy fused
/// detector kept in member state).
struct StreamContext {
  std::size_t windows_processed = 0;
  std::uint64_t last_tick_ns = 0;
  std::array<std::int32_t, 4> last_counts{};
};

struct OnlineDetectorOptions;

/// One detection channel.  Instances live for one detector, so member
/// variables are the place for channel-local stream state.  Hooks append
/// trips instead of raising directly: fusion is the detector's job.
class DetectionChannel {
 public:
  explicit DetectionChannel(Channel id) { verdict_.channel = id; }
  virtual ~DetectionChannel() = default;
  DetectionChannel(const DetectionChannel&) = delete;
  DetectionChannel& operator=(const DetectionChannel&) = delete;

  /// Called once, by the detector's constructor, with its references.
  virtual void arm(const ChannelRefs& refs) { (void)refs; }
  /// One drained transaction window.
  virtual void on_transaction(const core::Transaction& txn,
                              const StreamContext& ctx,
                              std::vector<ChannelTrip>& trips) {
    (void)txn; (void)ctx; (void)trips;
  }
  /// The side-channel sample kind this channel reads, if any.  The
  /// detector asks once, in its constructor, and delivers each sample
  /// only to the channels that read its kind.
  [[nodiscard]] virtual std::optional<SampleKind> sample_kind() const {
    return std::nullopt;
  }
  /// One sample of kind sample_kind() (seconds, channel units).
  virtual void on_sample(double t_s, double value, const StreamContext& ctx,
                         std::vector<ChannelTrip>& trips) {
    (void)t_s; (void)value; (void)ctx; (void)trips;
  }
  /// End of stream, with the finalized capture.
  virtual void on_finish(const core::Capture& capture,
                         const StreamContext& ctx,
                         std::vector<ChannelTrip>& trips) {
    (void)capture; (void)ctx; (void)trips;
  }
  /// This channel's attribution row for the report.
  [[nodiscard]] virtual ChannelVerdict verdict() const = 0;

 protected:
  void set_armed(bool armed) { verdict_.armed = armed; }

  /// Records a trip (the first one also lands in the verdict row).
  void record_trip(std::uint32_t window, std::uint64_t tick_ns,
                   const std::array<std::int32_t, 4>& counts,
                   std::vector<ChannelTrip>& trips);

  /// The attribution row with this channel's final counts.
  [[nodiscard]] ChannelVerdict row(std::uint64_t windows_compared,
                                   std::uint64_t mismatches) const;

 private:
  ChannelVerdict verdict_{};
};

/// The enabled channels, in fusion order: golden-compare, stream-length,
/// golden-free (when `golden_free`), power, acoustic, vibration, then
/// final-counts and static-oracle (when `final_checks`), each gated by its
/// `ChannelSet` group - the step-stream channels by `steps`.
std::vector<std::unique_ptr<DetectionChannel>> make_channels(
    const OnlineDetectorOptions& options);

}  // namespace offramps::svc
