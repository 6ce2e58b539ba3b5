// Pluggable detection channels of the online detector.
//
// `OnlineDetector` used to fuse a hard-coded set of per-channel checks
// inline; it is now a *channel manager* in the PassRegistry mold: every
// way of judging a print - windowed step-count compare, stream-length
// overrun, golden-free plausibility, power signature, acoustic master
// signature, vibration signature, the end-of-print checks - is one
// `DetectionChannel` object behind a common interface.  The detector
// delivers each stream event (transaction window, side-channel sample,
// end of stream) to every enabled channel, collects the `ChannelTrip`s
// they emit, and fuses them into one first-alarm verdict: the earliest
// tripped window wins, ties go to the earlier-registered channel.  Each
// channel also contributes a `ChannelVerdict` attribution row to the
// report, so a fleet operator can see which modality caught a Trojan
// and which ones were armed but quiet.
//
// Third-party channels register through `ChannelRegistry::global()`
// exactly like analyzer passes; registration order is the fusion
// tie-break order, which keeps fleet reports deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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
/// name round-trip test derive their bounds from this so a new channel
/// cannot be forgotten silently.
inline constexpr std::uint8_t kChannelCount = 9;

const char* channel_name(Channel c);
/// Inverse of channel_name(); Channel::kNone for an unknown name.
Channel channel_from_name(std::string_view name);

using plant::SampleKind;

/// Which channel groups a fleet runs with.  `steps` covers every
/// channel derived from the captured step stream (golden compare,
/// stream length, golden-free, the end-of-print checks); the other
/// three each gate one physical side channel.
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
  /// Canonical "steps,power,acoustic,vibration" subset string (digest
  /// and CLI-round-trip stable).
  [[nodiscard]] std::string to_string() const;
  /// Parses a comma-separated group list ("power,acoustic,vibration,
  /// steps", any order, "all" = everything).  Throws std::runtime_error
  /// on an unknown group or an empty set.
  static ChannelSet parse(const std::string& text);

  bool operator==(const ChannelSet&) const = default;
};

/// The references a channel may arm against.  All pointers are borrowed
/// and must outlive the detector; a null (or empty) reference leaves
/// the channels needing it unarmed but reported.
struct ChannelRefs {
  const core::Capture* golden = nullptr;
  const analyze::Oracle* oracle = nullptr;
  const plant::SideTrace* golden_power = nullptr;
  const plant::SideTrace* golden_acoustic = nullptr;
  const plant::SideTrace* golden_vibration = nullptr;
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
/// delivered to in registration order).  nullptr when `trips` is empty.
const ChannelTrip* pick_first_trip(const std::vector<ChannelTrip>& trips);

/// Stream position handed to every channel hook (what the legacy fused
/// detector kept in member state).
struct StreamContext {
  std::size_t windows_processed = 0;
  std::uint64_t last_tick_ns = 0;
  std::array<std::int32_t, 4> last_counts{};
};

struct OnlineDetectorOptions;

/// Identity card of one channel (also what list() reports).
struct ChannelInfo {
  Channel id = Channel::kNone;
  const char* name = "";
  const char* description = "";
  /// Which ChannelSet group gates this channel.
  enum class Group : std::uint8_t { kSteps, kPower, kAcoustic, kVibration };
  Group group = Group::kSteps;
};

/// One detection channel.  Instances live for one detector, so member
/// variables are the place for channel-local stream state.  Hooks append
/// trips instead of raising directly: fusion is the detector's job.
class DetectionChannel {
 public:
  virtual ~DetectionChannel() = default;
  DetectionChannel() = default;
  DetectionChannel(const DetectionChannel&) = delete;
  DetectionChannel& operator=(const DetectionChannel&) = delete;

  [[nodiscard]] virtual ChannelInfo info() const = 0;

  /// Called once, before the first event, with the references the
  /// detector accumulated.
  virtual void arm(const ChannelRefs& refs) { (void)refs; }
  /// One drained transaction window.
  virtual void on_transaction(const core::Transaction& txn,
                              const StreamContext& ctx,
                              std::vector<ChannelTrip>& trips) {
    (void)txn; (void)ctx; (void)trips;
  }
  /// One side-channel sample (seconds, channel units).
  virtual void on_sample(SampleKind kind, double t_s, double value,
                         const StreamContext& ctx,
                         std::vector<ChannelTrip>& trips) {
    (void)kind; (void)t_s; (void)value; (void)ctx; (void)trips;
  }
  /// End of stream, with the finalized capture.
  virtual void on_finish(const core::Capture& capture,
                         const StreamContext& ctx,
                         std::vector<ChannelTrip>& trips) {
    (void)capture; (void)ctx; (void)trips;
  }
  /// This channel's attribution row for the report.
  [[nodiscard]] virtual ChannelVerdict verdict() const = 0;
};

using ChannelFactory = std::function<std::unique_ptr<DetectionChannel>(
    const OnlineDetectorOptions&)>;

/// Process-wide channel registry.  Builtin channels self-register on
/// first access; third-party channels may `add` more at any time.
/// Thread-safe (fleet rigs build detectors on parallel workers).
class ChannelRegistry {
 public:
  static ChannelRegistry& global();

  /// Registers a channel factory.  Returns false (and registers
  /// nothing) when the Channel id is already taken.  A factory may
  /// return nullptr to sit out a particular configuration (e.g. the
  /// golden-free channel when options disable it).
  bool add(ChannelInfo info, ChannelFactory factory);

  /// Registered channels in registration order (= fusion tie-break
  /// order).
  [[nodiscard]] std::vector<ChannelInfo> list() const;
  [[nodiscard]] bool has(Channel id) const;

  /// Instantiates one channel; nullptr for an unknown id or when the
  /// factory declined the configuration.
  [[nodiscard]] std::unique_ptr<DetectionChannel> make(
      Channel id, const OnlineDetectorOptions& options) const;

  /// Instantiates every registered channel whose group is enabled, in
  /// registration order, skipping factories that decline.
  [[nodiscard]] std::vector<std::unique_ptr<DetectionChannel>> make_enabled(
      const ChannelSet& set, const OnlineDetectorOptions& options) const;

 private:
  ChannelRegistry() = default;
  struct Entry {
    ChannelInfo info;
    ChannelFactory factory;
  };
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

namespace detail {
/// Registers the builtin channels (channel.cpp); called once from
/// ChannelRegistry::global().
void register_builtin_channels(ChannelRegistry& registry);
}  // namespace detail

}  // namespace offramps::svc
