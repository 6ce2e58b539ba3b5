// OFFRAMPS end-to-end benchmark: shared declarations.
//
// The entry point (main.cpp) runs one workload (workloads.cpp) as closed-loop
// passes and prints the end-to-end metrics; a traced run additionally
// measures the per-layer ledger (layers.cpp) by timing calls into each
// module's public API from outside.  report.cpp holds the statistics,
// the span ledger and the result rendering they share.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "svc/daemon.hpp"
#include "svc/fleet.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Percentile (`p` in [0, 100], linear interpolation between ranks) of an
/// unsorted sample; 0 for an empty one.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Median wall seconds of `reps` calls of `fn`.
template <class F>
double median_seconds(int reps, F&& fn) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

// ---- results -----------------------------------------------------------

/// One named metric.  `exact` marks deterministic counts: they must repeat
/// bit for bit between runs of the same code, and they stay comparable in
/// builds whose timings are not.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;
};

class Metrics {
 public:
  void time(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit, false});
  }
  void count(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit, true});
  }
  [[nodiscard]] const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Correctness tally: rigs (or probe checks) judged, and those that failed
/// the workload's gate, with the first cause kept for the log.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_cause;

  void judge(bool ok, const std::string& cause) {
    ++attempted;
    if (!ok) fail(cause);
  }
  void fail(const std::string& cause, std::uint64_t n = 1) {
    failed += n;
    if (first_cause.empty()) first_cause = cause;
  }
};

// ---- span ledger -------------------------------------------------------

/// Spans the benchmark records around its calls into the program, on the
/// main thread.  Each is mirrored into obs::TraceSession (so the traced
/// run's chrome://tracing file shows them) and kept here with its parent,
/// so a layer's self time is its duration minus its children's.
class Ledger {
 public:
  class Scope {
   public:
    Scope(Ledger& ledger, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Ledger& ledger_;
    std::size_t index_;
    Clock::time_point t0_;
  };

  struct Row {
    std::string name;
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  /// Per span name, in first-seen order.
  [[nodiscard]] std::vector<Row> rows() const;

 private:
  struct Span {
    std::string name;
    double seconds = 0.0;
    double child_seconds = 0.0;
    std::size_t parent = kNone;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Span> spans_;
  std::size_t open_ = kNone;
};

// ---- workloads ---------------------------------------------------------

enum class Kind { kCampaign, kSweep, kReplay };

/// Parses "campaign" / "sweep" / "replay"; false on anything else.
bool parse_kind(const std::string& text, Kind& out);
const char* kind_name(Kind kind);

/// The Table II Flaw3D variants (reduction and relocation families).
const std::vector<std::string>& table2_variants();

/// One workload: its generated fleet, its set-up, one closed-loop pass,
/// and its correctness gate.  Every input derives from `seed`; the rig
/// jitter seeds are 1000 * seed + index, so seed 1 is the fleetd demo.
class Workload {
 public:
  Workload(Kind kind, std::uint64_t seed, bool tiny, std::string work_dir);

  [[nodiscard]] const std::vector<offramps::svc::RigSpec>& specs() const {
    return specs_;
  }
  /// Options of the live fleet: the timed one (campaign, sweep) or the
  /// recording one (replay).
  [[nodiscard]] const offramps::svc::FleetOptions& options() const {
    return options_;
  }
  /// Worker threads of a timed pass.
  [[nodiscard]] std::size_t workers() const;

  /// Everything before timing starts, from a fresh work directory:
  /// slicing and linting the objects (campaign), warming the reference
  /// cache (sweep), recording the session corpus from a live campaign
  /// (replay); then one untimed warm-up pass that fixes the expected
  /// report.  Re-runnable; the last call's state is what passes use.
  void setup(Gate& gate);

  /// One closed-loop pass; its report is checked against the workload's
  /// gate and against the expected bytes (the live report for replay,
  /// else the warm-up pass).
  offramps::svc::FleetReport pass(Gate& gate);

  /// Expected report bytes (set by setup()).
  [[nodiscard]] const std::string& expected() const { return expected_; }
  /// The live report replay was recorded from (replay only).
  [[nodiscard]] const offramps::svc::FleetReport& recording() const {
    return recording_;
  }

  /// Directory holding one .ofs session per rig; campaign records one
  /// extra (checked) pass with captures on the first time it is asked.
  std::string session_corpus(Gate& gate);
  /// The sweep's campaign checkpoint ("" otherwise).
  [[nodiscard]] std::string checkpoint_path() const;
  [[nodiscard]] const std::string& work_dir() const { return work_dir_; }

 private:
  void judge(const offramps::svc::FleetReport& report, Gate& gate) const;

  Kind kind_;
  std::string work_dir_;
  std::vector<offramps::svc::RigSpec> specs_;
  offramps::svc::FleetOptions options_;
  offramps::svc::ReplayOptions replay_;
  offramps::svc::FleetReport recording_;
  std::string expected_;
  std::string recorded_corpus_;
};

// ---- per-layer ledger --------------------------------------------------

/// What the traced run's untraced passes measured, for the differencing
/// metrics (live rig share, fleet self time, pool balance).
struct PassStats {
  std::vector<double> wall_s;
  /// Per-pass sum of per-rig/per-session phase seconds.
  std::vector<double> phase_sum_s;
  /// Every "rig/*" phase of the passes (for replay, of its recording).
  std::vector<offramps::svc::PhaseTiming> rig_phases;
};

/// Runs every layer probe on the workload's own objects, corpus and
/// report, and appends the per-layer metrics.
void measure_layers(Workload& w, const offramps::svc::FleetReport& report,
                    const PassStats& untraced, bool tiny, Ledger& ledger,
                    Metrics& out, Gate& gate);

// ---- rendering ---------------------------------------------------------

/// Build facts every results file records.
struct Provenance {
  std::string build_type;
  bool optimized = false;
  bool sanitized = false;
  bool obs_compiled = false;
  unsigned nproc = 0;
  std::string commit;
  std::string source_digest;
  /// Timings from a sanitized or unoptimized build are not comparable.
  [[nodiscard]] bool comparable() const { return optimized && !sanitized; }
};
Provenance provenance(const std::string& commit,
                      const std::string& source_digest);

/// Human-readable metric table on stdout.
void print_table(const std::string& title, const Metrics& m,
                 bool comparable);

/// JSON number with every digit a double carries (or the string "not
/// comparable" for timings of a build that is not comparable).
std::string json_value(const Metric& m, bool comparable);
std::string json_escape(const std::string& s);

}  // namespace perfbench
