// Scoped spans with chrome://tracing export.
//
// A TraceSession collects "complete" events (ph "X" in the Trace Event
// Format) from obs::Span RAII guards anywhere in the process and renders
// them as a JSON document that chrome://tracing and Perfetto open
// directly.  This is the reproduction's answer to the paper's
// logic-analyzer role: instead of eyeballing wire dumps, a fleet
// operator loads one trace file and sees every rig's reference print,
// detection windows, and campaign cells on a per-thread timeline.
//
// Cost contract (mirrors obs::metrics): with no session active a Span
// constructor is one relaxed atomic load and an untaken branch; nothing
// is allocated by the span itself and nothing is recorded.  With a
// session active every span records (spans are not sampled): recording
// appends to a mutex-guarded vector - spans mark phases (whole prints,
// campaign cells), not per-event work, so contention is structural noise.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

namespace offramps::obs {

/// Process-wide span collector.  start() clears any previous events and
/// begins recording; stop() freezes the set; to_json()/save() render the
/// Trace Event Format document ("traceEvents" array of complete events,
/// timestamps in microseconds since start()).
class TraceSession {
 public:
  static void start();
  static void stop();
  [[nodiscard]] static bool active();
  /// Events recorded in the current/most recent session.
  [[nodiscard]] static std::size_t event_count();

  /// The chrome://tracing JSON document for everything recorded so far.
  [[nodiscard]] static std::string to_json();
  /// Writes to_json() to `path`; false (with errno on stderr) on failure.
  static bool save(const std::string& path);

  /// Records one complete event; `t0` is the span's start instant.
  /// Called by ~Span; callable directly for spans that cannot be scoped.
  static void record(std::string name, std::string cat,
                     std::chrono::steady_clock::time_point t0);
};

/// RAII span: records a complete event covering its own lifetime, tagged
/// with the calling thread.  Inert (and allocation-free beyond the name
/// strings the caller built) when no session is active at construction.
class Span {
 public:
  explicit Span(std::string name, std::string cat = "offramps")
      : armed_(TraceSession::active()) {
    if (!armed_) return;
    name_ = std::move(name);
    cat_ = std::move(cat);
    t0_ = std::chrono::steady_clock::now();
  }

  ~Span() {
    if (armed_) TraceSession::record(std::move(name_), std::move(cat_), t0_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool armed_;
  std::string name_;
  std::string cat_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace offramps::obs
