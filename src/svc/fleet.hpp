// Fleet service: multi-rig orchestration with online streaming detection.
//
// One OFFRAMPS board defends one printer; a print farm needs a fleet of
// them reporting to a single host.  This orchestrator runs N independent
// rigs - each with its own seed, object, and (optionally) implanted
// Flaw3D Trojan - over the host::ParallelRunner pool, with one
// svc::OnlineDetector per rig consuming that rig's capture stream live
// through its ring buffer.  The rig reaches its detector only through a
// svc::DetectorFeed, fed by the UART tap and by a service slot on the
// rig's own clock - the same door a replayed session goes through.
//
// Run shape:
//
//   1. Reference phase: for each distinct object in the fleet, slice the
//      clean program, compute its static oracle, and print one reference
//      part (fixed reference seed) to obtain the golden capture and the
//      golden side-channel traces (power, acoustic, vibration - per the
//      enabled channel set).  References are shared by every rig printing
//      that object and are computed on the same pool.
//   2. Fleet phase: every rig prints under its detector.  A mid-print
//      alarm safe-stops that rig's firmware (the paper's real-time
//      halt, here driven by the fused multi-channel verdict); the other
//      rigs are unaffected.
//
// Determinism: each rig is a self-contained single-threaded simulation,
// outcomes are stored by rig index, and the report renders no wall-clock
// or worker-count data - so the fleet report is BYTE-IDENTICAL at any
// `--jobs` value.  Detector memory is bounded per rig by the ring
// capacity; the backpressure policy (producer stall, lossless) is
// documented in online_detector.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "host/chaos.hpp"
#include "host/slicer.hpp"
#include "svc/online_detector.hpp"
#include "svc/ref_cache.hpp"
#include "svc/supervisor.hpp"

namespace offramps::host {
struct RigOptions;
}  // namespace offramps::host

namespace offramps::svc {

/// Attaches one side-channel probe per enabled channel to `ro`, every
/// probe's noise seed derived from `seed` via plant::probe_noise_seed.
/// Shared by the batch fleet and the daemon's reference resolver so no
/// caller can regress to the old fixed-default-seed behavior (which gave
/// every rig in the farm the same sensor-noise sequence).
void attach_probes(host::RigOptions& ro, const ChannelSet& channels,
                   std::uint64_t seed);

/// Sabotage implanted in one rig's g-code path (the Flaw3D families of
/// paper Table II).  Parsed from "reduce:<factor>" / "relocate:<n>".
struct Sabotage {
  enum class Kind : std::uint8_t { kNone, kReduction, kRelocation };
  Kind kind = Kind::kNone;
  double factor = 0.5;         // reduction: E multiplier
  std::uint32_t every_n = 20;  // relocation: moves between blob dumps

  [[nodiscard]] std::string to_string() const;  // "clean", "reduce:0.50", ...
};

/// Parses "" / "clean" / "none" / "reduce:0.85" / "relocate:10".
/// Throws offramps::Error on anything else.
Sabotage parse_sabotage(const std::string& text);

/// One rig's slot in the fleet.
struct RigSpec {
  std::string name;         // defaults to "rig-<index>" when empty
  std::uint64_t seed = 1;   // firmware jitter seed (per-print drift)
  double cube_mm = 8.0;     // printed object: cube footprint
  double height_mm = 3.0;   // ...and height
  Sabotage sabotage{};
  /// Service-layer fault injected into this rig's supervised attempts
  /// (host::parse_chaos grammar, a live drill only; none by default).
  host::ChaosSpec chaos{};
};

/// The live consumer's service rate: every `period` of sim time a rig's
/// service slot streams its probes' fresh samples into the detector feed
/// and drains up to `windows_per_slot` windows.  Slowing it (small
/// budget, long period) is how tests provoke ring backpressure.
struct PumpOptions {
  sim::Tick period = sim::ms(100);
  std::size_t windows_per_slot = 4;
};

/// How a svc::DetectorFeed judges one rig's stream.
struct SessionOptions {
  /// Detector tuning; a replay must use the live campaign's for
  /// byte-identity (ring capacity shapes high-water/stall counts).
  OnlineDetectorOptions detector{};
  /// Windows drained per slot - the live PumpOptions::windows_per_slot.
  std::size_t windows_per_slot = 4;
};

/// How rigs are judged and how their golden references are obtained:
/// shared by the batch fleet (FleetOptions derives from it), the daemon
/// and replay.  A replay must use the live campaign's values for a
/// byte-identical report.
struct ServiceOptions {
  /// Worker threads; 0 = host::ParallelRunner::default_workers().
  std::size_t workers = 0;
  /// Per-rig detector tuning (channels, margins, ring capacity).
  OnlineDetectorOptions detector{};
  /// Per-rig consumer rate (service period, windows per slot).
  PumpOptions pump{};
  /// Arm the static-oracle channel (end-of-print tight-margin check and
  /// g-code line attribution for alarms).
  bool use_oracle = true;
  /// Which side channels to probe and arm (steps, power, acoustic,
  /// vibration - all on by default).  Probes are only attached for
  /// enabled channels, and the same set keys the reference cache so a
  /// golden without a channel's trace is never served to a campaign that
  /// wants that channel.  Mirrored into detector.channels per rig.
  ChannelSet channels{};
  /// Fixed jitter seed of the reference prints.
  std::uint64_t reference_seed = 42;
  /// Slicer profile shared by every object.
  host::SliceProfile profile{};
  /// When set, golden references are served from / persisted to this
  /// svc::RefCache directory (content-addressed by object + slicer
  /// profile + reference seed + channels), so repeated campaigns skip the
  /// reference simulations entirely.  Orchestration plumbing: it does not
  /// enter the campaign digest and cannot change report bytes.
  std::string cache_dir;
  /// RefCache LRU size bound in bytes (0 = unbounded).
  std::uint64_t cache_max_bytes = 0;

  /// The feed options of a rig judged on the `live` channels.
  [[nodiscard]] SessionOptions session(const ChannelSet& live) const {
    SessionOptions s{detector, pump.windows_per_slot};
    s.detector.channels = live;
    return s;
  }
};

/// Checks a printed object's size before anything slices it: `cube_mm`
/// (the footprint) and `height_mm` must be finite, > 0 and within the
/// printer's travel (fw::Config{}.axis_length_mm: X and Y bound the
/// footprint, Z the height).  Throws offramps::Error naming the key.
void check_object(double cube_mm, double height_mm);

/// One object's reference material, shared by every rig printing it: the
/// clean sliced program, its static oracle and the golden print.  The
/// batch fleet and the daemon's reference resolver both build it here.
struct Reference {
  gcode::Program program;
  analyze::Oracle oracle;
  RefEntry entry;  // golden capture + side-channel traces
  /// The golden traces' window means, once set_means() has run.
  WindowMeans power_means;
  WindowMeans acoustic_means;
  WindowMeans vibration_means;

  /// Slices the cube and computes its static oracle; `entry` stays empty.
  static Reference slice(double cube_mm, double height_mm,
                         const host::SliceProfile& profile);

  /// The golden print: one rig at the reference seed with a probe per
  /// channel in `probes`, under a StallWatchdog tuned by `watchdog` and
  /// named `phase`.  Fills `entry` once the print finished; throws
  /// offramps::Error, leaving `entry` as it was, when it stalls or does
  /// not finish.
  void print(const ServiceOptions& options, const ChannelSet& probes,
             const SupervisorOptions& watchdog, const std::string& phase);

  /// Takes each golden trace's window means at its side channel's
  /// window in `detector`, once for every session armed from refs().
  void set_means(const OnlineDetectorOptions& detector);

  /// The detector references: the static oracle only when the campaign
  /// uses it and it armed.
  [[nodiscard]] ChannelRefs refs(bool use_oracle) const {
    ChannelRefs r = entry.refs(use_oracle && oracle.counters_armed ? &oracle
                                                                   : nullptr);
    r.power_means = &power_means;
    r.acoustic_means = &acoustic_means;
    r.vibration_means = &vibration_means;
    return r;
  }
};

/// The batch campaign: the judging options plus its own.
struct FleetOptions : ServiceOptions {
  /// Kill a rig's firmware the moment its detector alarms mid-print.
  bool safe_stop = true;
  /// When set, persist each object's golden capture and each rig's
  /// observed capture as .bin files (core::Capture::save_binary) there,
  /// plus each rig's detector-feed session stream as a .ofs file
  /// (core::wire) replayable by svc::replay_corpus.  The files are
  /// `golden-<object>.bin` and `<rig name>.{bin,ofs}`, the name made
  /// file-safe; Fleet::run rejects a fleet where two of them collide.
  std::string save_captures_dir;
  /// Per-phase retry/watchdog/quarantine policy.
  SupervisorOptions supervisor{};
  /// When set, write a campaign checkpoint (completed rig verdicts plus
  /// per-object golden references) there after every `checkpoint_every`
  /// completed rigs, via write-to-temp + atomic rename.
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  /// When set, load this checkpoint first and skip (not re-simulate) the
  /// rigs it already covers.
  std::string resume_path;
  /// When > 0, stop the campaign after this many rigs have completed
  /// this process (checkpoint-kill drill for tests; remaining rigs are
  /// reported kPending and FleetReport::complete is false).
  std::size_t stop_after = 0;
};

/// One rig's outcome: spec, print result summary, detector verdict.
struct RigOutcome {
  RigSpec spec;
  OnlineReport detector;
  bool print_finished = false;
  bool safe_stopped = false;   // killed by the fleet's alarm hook
  std::string kill_reason;
  double sim_seconds = 0.0;
  std::array<std::int64_t, 4> final_counts{};
  /// Supervision verdict: ok / recovered / degraded / lost / pending.
  RigStatus status = RigStatus::kOk;
  std::uint32_t attempts = 1;
  /// Last failure the supervisor saw ("" when the first attempt
  /// succeeded; for kLost, why the rig was quarantined).
  std::string failure_cause;
};

/// One orchestration phase's wall-clock cost ("reference/0" per object,
/// "rig/<name>" per rig).
struct PhaseTiming {
  std::string name;
  double seconds = 0.0;
};

/// Whole-fleet result.
struct FleetReport {
  std::vector<RigOutcome> rigs;
  /// Wall-clock phase timings in deterministic order (references by
  /// object index, then rigs by spec index).  Collected on every run but
  /// NEVER rendered by to_json() - only the CLI's --metrics flag
  /// surfaces them, in a separate "metrics" section, so the results stay
  /// byte-identical whether or not instrumentation is on.
  std::vector<PhaseTiming> timings;
  /// False when the campaign stopped early (stop_after): some rigs are
  /// kPending and the report is a partial, resumable snapshot.
  bool complete = true;

  [[nodiscard]] std::size_t alarmed() const;
  [[nodiscard]] std::size_t mid_print_alarms() const;
  /// Supervision census over `rigs`.
  [[nodiscard]] std::size_t count(RigStatus s) const;
  /// Worst-of campaign classification: "partial" when incomplete, else
  /// "lost" / "degraded" / "recovered" / "clean" by the worst rig status.
  [[nodiscard]] std::string campaign() const;

  /// Deterministic machine-readable report (analyzer JSON conventions).
  /// Contains no wall-clock or worker-count data: byte-identical for a
  /// given fleet spec at any worker count.
  [[nodiscard]] std::string to_json() const;
  /// Same document with one extra top-level "metrics" member holding the
  /// pre-rendered JSON value `metrics_json` (see metrics_json()).  With
  /// an empty argument this is to_json() byte for byte.
  [[nodiscard]] std::string to_json_with_metrics(
      const std::string& metrics_json) const;
  /// The "metrics" section value: {"phases": {...}, "registry": {...}} -
  /// the phase timings above plus a snapshot of the process-wide obs::
  /// registry (scheduler/runner/detector counters).  Keys are emitted in
  /// deterministic order; values are wall-clock measurements.
  [[nodiscard]] std::string metrics_json() const;
  /// One line per rig, for the console.
  [[nodiscard]] std::string to_string() const;
};

/// The orchestrator.
class Fleet {
 public:
  explicit Fleet(FleetOptions options = {});

  /// Runs the whole fleet; outcomes are indexed like `specs`.  Throws
  /// offramps::Error, before simulating or writing anything, when a
  /// rig's chaos order is not a live drill (host::live_drill), or the
  /// campaign saves captures and two rigs' file stems collide, or a
  /// rig's stem is some object's `golden-<i>`.
  FleetReport run(const std::vector<RigSpec>& specs);

  /// Built-in demo fleet: `n` rigs, the first `sabotaged` of which get
  /// Flaw3D variants (cycling reduce:0.5, relocate:5, reduce:0.85,
  /// relocate:10 - the strongly windowed-detectable half of Table II),
  /// interleaved evenly among clean rigs.
  static std::vector<RigSpec> demo_specs(std::size_t n,
                                         std::size_t sabotaged);

  /// Parses a fleet spec document:
  ///   { "workers": 4, "safe_stop": true, "rigs": [
  ///       {"name": "a", "seed": 7, "cube_mm": 8, "height_mm": 3,
  ///        "sabotage": "reduce:0.85"}, ... ] }
  /// (the keys `offramps_fleetd --spec-help` lists); rig defaults are
  /// RigSpec's.  Throws offramps::Error, naming the key, on an unknown
  /// key, a key of another JSON kind than it takes (null included) or a
  /// key given twice, in the document or in a rig entry; and on
  /// malformed JSON, an integer out of its range (`max_attempts` and
  /// `checkpoint_every` take at least 1, as their flags do), a malformed
  /// sabotage or chaos string, or an object size check_object()
  /// rejects.  Every message begins "fleet spec: ", and one about a
  /// rig entry "fleet spec: rig <i>: ".
  static std::vector<RigSpec> specs_from_json(const std::string& text,
                                              FleetOptions& options);

 private:
  FleetOptions options_;
};

}  // namespace offramps::svc
