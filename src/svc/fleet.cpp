#include "svc/fleet.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "analyze/analyzer.hpp"
#include "core/strict_parse.hpp"
#include "detect/side_channel.hpp"
#include "gcode/flaw3d.hpp"
#include "host/parallel_runner.hpp"
#include "host/rig.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"
#include "core/session_wire.hpp"
#include "svc/checkpoint.hpp"
#include "svc/json.hpp"
#include "svc/session.hpp"

namespace offramps::svc {

std::string Sabotage::to_string() const {
  char buf[48];
  switch (kind) {
    case Kind::kNone: return "clean";
    case Kind::kReduction:
      // The string is parsed back (session hello, campaign digest), so
      // it must name this factor: two decimals where they do, else the
      // shortest form that round-trips ("0.998", not "1.00").
      std::snprintf(buf, sizeof(buf), "%.2f", factor);
      if (core::parse_double(buf) != factor) {
        *std::to_chars(buf, buf + sizeof(buf) - 1, factor).ptr = '\0';
      }
      return std::string("reduce:") + buf;
    case Kind::kRelocation:
      std::snprintf(buf, sizeof(buf), "relocate:%u", every_n);
      return buf;
  }
  return "?";
}

Sabotage parse_sabotage(const std::string& text) {
  Sabotage s;
  if (text.empty() || text == "clean" || text == "none") return s;
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : text.substr(colon + 1);
  if (head == "reduce") {
    // core::parse_double is strict (whole string, locale-independent) -
    // std::strtod would accept "0.5junk" and, under a de_DE LC_NUMERIC,
    // read "0,5" styles differently than the spec files intend.
    const auto f = core::parse_double(arg);
    if (!f || *f <= 0.0 || *f >= 1.0) {
      throw Error("sabotage: reduce wants a factor in (0, 1): \"" + text +
                  "\"");
    }
    s.kind = Sabotage::Kind::kReduction;
    s.factor = *f;
    return s;
  }
  if (head == "relocate") {
    const auto n = core::parse_int<std::uint32_t>(arg);
    if (!n || *n < 1) {
      throw Error("sabotage: relocate wants a positive move count: \"" +
                  text + "\"");
    }
    s.kind = Sabotage::Kind::kRelocation;
    s.every_n = *n;
    return s;
  }
  throw Error(
      "sabotage: expected \"clean\", \"reduce:<factor>\" or "
      "\"relocate:<n>\", got \"" +
      text + "\"");
}

std::size_t FleetReport::alarmed() const {
  std::size_t n = 0;
  for (const auto& r : rigs) n += r.detector.alarmed ? 1 : 0;
  return n;
}

std::size_t FleetReport::mid_print_alarms() const {
  std::size_t n = 0;
  for (const auto& r : rigs) n += r.detector.alarmed_mid_print ? 1 : 0;
  return n;
}

std::size_t FleetReport::count(RigStatus s) const {
  std::size_t n = 0;
  for (const auto& r : rigs) n += r.status == s ? 1 : 0;
  return n;
}

std::string FleetReport::campaign() const {
  if (!complete || count(RigStatus::kPending) > 0) return "partial";
  if (count(RigStatus::kLost) > 0) return "lost";
  if (count(RigStatus::kDegraded) > 0) return "degraded";
  if (count(RigStatus::kRecovered) > 0) return "recovered";
  return "clean";
}

namespace {

void append_kv(std::string& out, const char* key, bool v) {
  out += '"';
  out += key;
  out += "\": ";
  out += v ? "true" : "false";
}

using JsonKind = json::Value::Kind;

/// One key a fleet-spec object may hold, and the JSON kind it takes.
struct SpecKey {
  const char* name;
  JsonKind kind;
};

constexpr SpecKey kDocumentKeys[] = {
    {"workers", JsonKind::kNumber},
    {"safe_stop", JsonKind::kBool},
    {"use_oracle", JsonKind::kBool},
    {"use_power", JsonKind::kBool},
    {"channels", JsonKind::kString},
    {"reference_seed", JsonKind::kNumber},
    {"save_captures_dir", JsonKind::kString},
    {"cache", JsonKind::kString},
    {"cache_max_mb", JsonKind::kNumber},
    {"ring_capacity", JsonKind::kNumber},
    {"max_attempts", JsonKind::kNumber},
    {"backoff_ms", JsonKind::kNumber},
    {"stall_timeout_s", JsonKind::kNumber},
    {"checkpoint", JsonKind::kString},
    {"checkpoint_every", JsonKind::kNumber},
    {"rigs", JsonKind::kArray},
};

constexpr SpecKey kRigKeys[] = {
    {"name", JsonKind::kString},    {"seed", JsonKind::kNumber},
    {"cube_mm", JsonKind::kNumber}, {"height_mm", JsonKind::kNumber},
    {"sabotage", JsonKind::kString}, {"chaos", JsonKind::kString},
};

const char* kind_name(JsonKind kind) {
  switch (kind) {
    case JsonKind::kNull: return "null";
    case JsonKind::kBool: return "a boolean";
    case JsonKind::kNumber: return "a number";
    case JsonKind::kString: return "a string";
    case JsonKind::kArray: return "an array";
    case JsonKind::kObject: return "an object";
  }
  return "?";
}

/// Throws, naming the key, unless every member of `object` is one of
/// `keys`, of the kind that key takes, and given once.  The `*_or` reads
/// that follow treat a missing key and a key of another kind alike, so
/// this check is what keeps a typo or a quoted number from reading as
/// "not given".  `where` prefixes the message ("rig 3: ").  Like every
/// spec check, it throws without the "fleet spec: " prefix, which
/// Fleet::specs_from_json adds once.
void check_spec_keys(const json::Value& object, std::span<const SpecKey> keys,
                     const std::string& where) {
  for (std::size_t i = 0; i < object.fields.size(); ++i) {
    const auto& [name, value] = object.fields[i];
    const auto key =
        std::find_if(keys.begin(), keys.end(),
                     [&](const SpecKey& k) { return name == k.name; });
    if (key == keys.end()) {
      throw Error(where + "unknown key \"" + name + "\"");
    }
    if (value.kind != key->kind) {
      throw Error(where + "\"" + name + "\" must be " +
                  kind_name(key->kind) + ", not " + kind_name(value.kind));
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (object.fields[j].first == name) {
        throw Error(where + "\"" + name + "\" is given twice");
      }
    }
  }
}

/// An optional integer member of a fleet spec (check_spec_keys() has
/// made sure it is a number).  Absent keeps `fallback`; a value that is
/// not a finite integer in [min, T's maximum] throws, naming the key - a
/// config typo must not reach a cast.
template <typename T>
T spec_integer(const json::Value& doc, const std::string& key, T fallback,
               T min = 0) {
  const json::Value* v = doc.find(key);
  if (v == nullptr || v->kind != json::Value::Kind::kNumber) return fallback;
  const double d = v->number;
  // 2^digits is the first value past T's range, exactly a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(d >= static_cast<double>(min) && d < limit) || d != std::floor(d)) {
    throw Error("\"" + key + "\" must be an integer in [" +
                std::to_string(min) + ", " +
                std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(d);
}

/// A file-name-safe rendition of a rig name.
std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    out += ok ? c : '_';
  }
  return out.empty() ? "rig" : out;
}

/// Throws when two of the files a campaign saves into its captures dir
/// `dir` would overwrite each other: two share a stem (a rig's sanitized
/// name, or `golden-<i>` for each of the `objects` references), or the
/// checkpoint (`checkpoint_path`, when set) is `<stem>.bin`, `<stem>.ofs`
/// or the `.tmp` such a file is first written as.
void check_capture_files(const std::vector<RigSpec>& fleet,
                         std::size_t objects, const std::string& dir,
                         const std::string& checkpoint_path) {
  std::map<std::string, std::string> owner;  // stem -> who saves it
  for (std::size_t i = 0; i < objects; ++i) {
    owner.emplace("golden-" + std::to_string(i),
                  "the golden capture of object " + std::to_string(i));
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::string stem = sanitize(fleet[i].name);
    const std::string who =
        "rig " + std::to_string(i) + " ('" + fleet[i].name + "')";
    const auto [at, fresh] = owner.emplace(stem, who);
    if (!fresh) {
      throw Error("fleet: captures: " + at->second + " and " + who +
                  " would both be saved as '" + stem + "'");
    }
  }
  if (checkpoint_path.empty()) return;

  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path checkpoint = fs::weakly_canonical(checkpoint_path, ec);
  fs::path in_dir;  // a file of the checkpoint's name in the captures dir
  if (!ec) in_dir = fs::weakly_canonical(dir / checkpoint.filename(), ec);
  if (ec) {
    throw Error("fleet: captures: cannot resolve the checkpoint '" +
                checkpoint_path + "': " + ec.message());
  }
  if (in_dir != checkpoint) return;
  std::string name = checkpoint.filename().string();
  if (name.ends_with(".tmp")) name.resize(name.size() - 4);
  const fs::path file(name);
  const std::string ext = file.extension().string();
  const auto at = owner.find(file.stem().string());
  if ((ext == ".bin" || ext == ".ofs") && at != owner.end()) {
    throw Error("fleet: captures: the checkpoint '" + checkpoint_path +
                "' would collide with the '" + at->first +
                "' capture files of " + at->second);
  }
}

}  // namespace

std::string FleetReport::to_json() const {
  std::size_t sabotaged = 0;
  std::size_t true_alarms = 0;
  std::size_t false_alarms = 0;
  for (const auto& r : rigs) {
    const bool dirty = r.spec.sabotage.kind != Sabotage::Kind::kNone;
    sabotaged += dirty ? 1 : 0;
    if (r.detector.alarmed) {
      (dirty ? true_alarms : false_alarms) += 1;
    }
  }

  char buf[512];
  std::string out = "{\n  \"fleet\": {\n";
  std::snprintf(buf, sizeof(buf),
                "    \"rigs\": %zu,\n    \"sabotaged\": %zu,\n"
                "    \"alarmed\": %zu,\n    \"mid_print_alarms\": %zu,\n"
                "    \"true_alarms\": %zu,\n    \"false_alarms\": %zu,\n",
                rigs.size(), sabotaged, alarmed(), mid_print_alarms(),
                true_alarms, false_alarms);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "    \"recovered\": %zu,\n    \"degraded\": %zu,\n"
                "    \"lost\": %zu,\n    \"pending\": %zu,\n",
                count(RigStatus::kRecovered), count(RigStatus::kDegraded),
                count(RigStatus::kLost), count(RigStatus::kPending));
  out += buf;
  out += "    \"campaign\": \"";
  out += campaign();
  out += "\",\n    ";
  append_kv(out, "complete", complete);
  out += "\n  },\n  \"rigs\": [";
  for (std::size_t i = 0; i < rigs.size(); ++i) {
    const RigOutcome& r = rigs[i];
    out += i == 0 ? "\n" : ",\n";
    // The name is arbitrary text: append it through the escaper, never
    // through the fixed snprintf buffer (a long name would truncate).
    out += "    {\n      \"name\": ";
    obs::append_json_string(out, r.spec.name);
    std::snprintf(buf, sizeof(buf), ",\n      \"seed\": %llu,\n",
                  static_cast<unsigned long long>(r.spec.seed));
    out += buf;
    // Sizes from a session hello are any finite double: each gets a
    // buffer of its own (%.6f of DBL_MAX is 316 characters).
    out += "      \"cube_mm\": " + obs::format_fixed(r.spec.cube_mm);
    out += ",\n      \"height_mm\": " + obs::format_fixed(r.spec.height_mm);
    out += ",\n      \"sabotage\": \"";
    out += r.spec.sabotage.to_string();
    out += "\",\n      \"chaos\": \"";
    out += r.spec.chaos.to_string();
    out += "\",\n      \"status\": \"";
    out += rig_status_name(r.status);
    std::snprintf(buf, sizeof(buf), "\",\n      \"attempts\": %u,\n",
                  r.attempts);
    out += buf;
    // failure_cause carries arbitrary exception text - append it through
    // the escaper, never through a fixed snprintf buffer.
    out += "      \"failure_cause\": ";
    obs::append_json_string(out, r.failure_cause);
    out += ",\n";
    out += "      ";
    append_kv(out, "alarmed", r.detector.alarmed);
    out += ",\n      ";
    append_kv(out, "alarm_mid_print", r.detector.alarmed_mid_print);
    // The per-channel counts are read off the verdict rows; a channel
    // that was not instantiated renders as 0 (and final counts as
    // matching, the static oracle as quiet).
    const OnlineReport& d = r.detector;
    const auto windows = [&d](Channel c) -> unsigned long long {
      const ChannelVerdict* v = d.verdict(c);
      return v != nullptr ? v->windows_compared : 0;
    };
    const auto mismatches = [&d](Channel c) -> unsigned long long {
      const ChannelVerdict* v = d.verdict(c);
      return v != nullptr ? v->mismatches : 0;
    };
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"alarm_channel\": \"%s\",\n"
                  "      \"alarm_window\": %u,\n"
                  "      \"alarm_time_s\": %.6f,\n"
                  "      \"alarm_gcode_line\": %zu,\n"
                  "      \"windows_processed\": %zu,\n"
                  "      \"ring_high_water\": %zu,\n"
                  "      \"backpressure_stalls\": %llu,\n"
                  "      \"compare_mismatches\": %llu,\n"
                  "      \"golden_free_violations\": %llu,\n"
                  "      \"power_windows_compared\": %llu,\n"
                  "      \"power_mismatches\": %llu,\n",
                  channel_name(d.first_channel), d.alarm_window,
                  static_cast<double>(d.alarm_tick_ns) / 1e9,
                  d.alarm_gcode_line, d.windows_processed, d.ring_high_water,
                  static_cast<unsigned long long>(d.backpressure_stalls),
                  mismatches(Channel::kGoldenCompare),
                  mismatches(Channel::kGoldenFree), windows(Channel::kPower),
                  mismatches(Channel::kPower));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "      \"acoustic_windows_compared\": %llu,\n"
                  "      \"acoustic_mismatches\": %llu,\n"
                  "      \"vibration_windows_compared\": %llu,\n"
                  "      \"vibration_mismatches\": %llu,\n",
                  windows(Channel::kAcoustic), mismatches(Channel::kAcoustic),
                  windows(Channel::kVibration),
                  mismatches(Channel::kVibration));
    out += buf;
    // Per-channel attribution: one row per channel of this rig's
    // detector, in fusion (make_channels) order.
    out += "      \"channels\": [";
    for (std::size_t c = 0; c < r.detector.channels.size(); ++c) {
      const ChannelVerdict& v = r.detector.channels[c];
      out += c == 0 ? "\n" : ",\n";
      std::snprintf(buf, sizeof(buf),
                    "        {\"channel\": \"%s\", \"armed\": %s, "
                    "\"tripped\": %s, \"trip_window\": %u, "
                    "\"windows_compared\": %llu, \"mismatches\": %llu}",
                    channel_name(v.channel), v.armed ? "true" : "false",
                    v.tripped ? "true" : "false", v.trip_window,
                    static_cast<unsigned long long>(v.windows_compared),
                    static_cast<unsigned long long>(v.mismatches));
      out += buf;
    }
    out += r.detector.channels.empty() ? "],\n" : "\n      ],\n";
    out += "      ";
    append_kv(out, "final_counts_match",
              mismatches(Channel::kFinalCounts) == 0);
    out += ",\n      ";
    append_kv(out, "static_trojan_suspected",
              mismatches(Channel::kStaticOracle) != 0);
    out += ",\n      ";
    append_kv(out, "print_finished", r.print_finished);
    out += ",\n      ";
    append_kv(out, "safe_stopped", r.safe_stopped);
    std::snprintf(buf, sizeof(buf),
                  ",\n      \"sim_seconds\": %.6f,\n"
                  "      \"final_counts\": [%lld, %lld, %lld, %lld]\n",
                  r.sim_seconds,
                  static_cast<long long>(r.final_counts[0]),
                  static_cast<long long>(r.final_counts[1]),
                  static_cast<long long>(r.final_counts[2]),
                  static_cast<long long>(r.final_counts[3]));
    out += buf;
    out += "    }";
  }
  out += rigs.empty() ? "]\n}" : "\n  ]\n}";
  return out;
}

std::string FleetReport::to_json_with_metrics(
    const std::string& metrics_json) const {
  std::string out = to_json();
  if (metrics_json.empty()) return out;
  // Splice ",\n  \"metrics\": <value>" before the closing "\n}" so the
  // deterministic part of the document stays byte for byte to_json().
  out.resize(out.size() - 2);  // drop "\n}"
  out += ",\n  \"metrics\": ";
  out += metrics_json;
  out += "\n}";
  return out;
}

std::string FleetReport::metrics_json() const {
  std::string out = "{\n    \"phases\": {";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out += i == 0 ? "\n      " : ",\n      ";
    obs::append_json_string(out, timings[i].name);
    out += ": " + obs::format_fixed(timings[i].seconds);
  }
  out += timings.empty() ? "}" : "\n    }";
  out += ",\n    \"registry\": ";
  out += obs::Registry::instance().to_json();
  out += "\n  }";
  return out;
}

std::string FleetReport::to_string() const {
  std::string out;
  char buf[256];
  for (const auto& r : rigs) {
    std::string status;
    if (r.status != RigStatus::kOk) {
      status = " [";
      status += rig_status_name(r.status);
      if (r.attempts > 1) status += " x" + std::to_string(r.attempts);
      status += "]";
    }
    std::snprintf(buf, sizeof(buf), "%-10s seed=%-6llu %-14s %s%s%s\n",
                  r.spec.name.c_str(),
                  static_cast<unsigned long long>(r.spec.seed),
                  r.spec.sabotage.to_string().c_str(),
                  r.detector.to_string().c_str(),
                  r.safe_stopped ? " [safe-stopped]" : "", status.c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "fleet: %zu rigs, %zu alarmed (%zu mid-print), campaign %s\n",
                rigs.size(), alarmed(), mid_print_alarms(),
                campaign().c_str());
  out += buf;
  return out;
}

Fleet::Fleet(FleetOptions options) : options_(std::move(options)) {}

void attach_probes(host::RigOptions& ro, const ChannelSet& channels,
                   std::uint64_t seed) {
  // Each seed mixes the rig seed into the kind's tag: a probe seeded
  // with its tag alone gives every rig in the farm the same sensor noise.
  const auto attach = [&](SampleKind kind, bool enabled) {
    if (enabled) {
      ro.probes[kind] =
          plant::probe_noise_seed(seed, plant::probe_noise_tag(kind));
    }
  };
  attach(SampleKind::kPower, channels.power);
  attach(SampleKind::kAcoustic, channels.acoustic);
  attach(SampleKind::kVibration, channels.vibration);
}

void check_object(double cube_mm, double height_mm) {
  const auto& travel = fw::Config{}.axis_length_mm;
  const auto check = [](const char* key, double mm, double limit) {
    if (!(std::isfinite(mm) && mm > 0.0 && mm <= limit)) {
      throw Error(std::string("object: \"") + key + "\" must be in (0, " +
                  std::to_string(static_cast<int>(limit)) + "] mm");
    }
  };
  check("cube_mm", cube_mm, std::min(travel[0], travel[1]));
  check("height_mm", height_mm, travel[2]);
}

Reference Reference::slice(double cube_mm, double height_mm,
                           const host::SliceProfile& profile) {
  Reference ref;
  ref.program = host::slice_cube({.size_x_mm = cube_mm,
                                  .size_y_mm = cube_mm,
                                  .height_mm = height_mm,
                                  .center_x_mm = 110.0,
                                  .center_y_mm = 100.0},
                                 profile);
  ref.oracle = analyze::analyze_program(ref.program, fw::Config{}).oracle;
  return ref;
}

void Reference::set_means(const OnlineDetectorOptions& detector) {
  const auto take = [](WindowMeans& out, const plant::SideTrace& trace,
                       double window_s) {
    out = {window_s, detect::window_means(trace, window_s)};
  };
  take(power_means, entry.golden_power, detector.power.window_s);
  take(acoustic_means, entry.golden_acoustic, detector.acoustic.window_s);
  take(vibration_means, entry.golden_vibration, detector.vibration.window_s);
}

void Reference::print(const ServiceOptions& options, const ChannelSet& probes,
                      const SupervisorOptions& watchdog,
                      const std::string& phase) {
  host::RigOptions ro;
  ro.firmware.jitter_seed = options.reference_seed;
  attach_probes(ro, probes, options.reference_seed);
  host::Rig rig(ro);
  std::uint64_t txns = 0;
  rig.board().fpga().uart().on_transaction(
      [&txns](const core::Transaction&) { ++txns; });
  StallWatchdog dog(
      rig.scheduler(), watchdog, [&txns] { return txns; },
      [&rig] { return rig.firmware().state() == fw::FwState::kRunning; },
      phase);
  host::RunResult res = rig.run(program);
  if (!res.finished) throw Error("fleet: reference print did not finish");
  entry = {std::move(res.capture), std::move(res.power_trace),
           std::move(res.acoustic_trace), std::move(res.vibration_trace)};
}

namespace {

gcode::Program sabotaged_program(const gcode::Program& clean,
                                 const Sabotage& s) {
  switch (s.kind) {
    case Sabotage::Kind::kNone: return clean;
    case Sabotage::Kind::kReduction:
      return gcode::flaw3d::apply_reduction(clean, {.factor = s.factor});
    case Sabotage::Kind::kRelocation:
      return gcode::flaw3d::apply_relocation(clean,
                                             {.every_n_moves = s.every_n});
  }
  return clean;
}

/// The checkpoint a campaign resumes from (empty when not resuming).  A
/// digest mismatch is a hard error - resuming with edited specs or
/// options would silently skew results.
Checkpoint resume_point(const std::string& path, std::uint64_t digest,
                        std::size_t rigs, std::size_t objects) {
  if (path.empty()) return {};
  Checkpoint ck = Checkpoint::load(path);
  if (ck.spec_digest != digest) {
    throw Error(
        "checkpoint: spec digest mismatch - this checkpoint was written "
        "by a different campaign (specs or options changed)");
  }
  if (ck.total_rigs != rigs) {
    throw Error("checkpoint: rig count mismatch with the fleet spec");
  }
  if (ck.references.size() > objects) {
    throw Error("checkpoint: more references than the fleet has objects");
  }
  return ck;
}

/// Object `i`'s reference.  The slice and oracle are cheap and always
/// recomputed; the golden print comes from the resumed checkpoint's
/// `snapshots`, else the cache, else one print supervised like a rig
/// (retry on throw, sim-clocked stall watchdog), whose verdict lands in
/// `guard`.
Reference reference_phase(const FleetOptions& options,
                          const Supervisor& supervisor, RefCache* cache,
                          std::size_t i, std::pair<double, double> object,
                          std::vector<RefEntry>& snapshots,
                          GuardOutcome& guard) {
  Reference ref = Reference::slice(object.first, object.second,
                                   options.profile);
  guard = GuardOutcome{RigStatus::kOk, 0, {}};
  // An empty snapshot is a reference the checkpointed run lost.
  if (i < snapshots.size() && !snapshots[i].golden.empty()) {
    ref.entry = std::move(snapshots[i]);
    return ref;
  }
  const std::uint64_t key =
      reference_digest(object.first, object.second, options.profile,
                       options.reference_seed, options.channels);
  std::optional<RefEntry> hit;
  if (cache != nullptr) hit = cache->get(key);
  if (hit) {
    ref.entry = std::move(*hit);
  } else {
    if (obs::enabled()) {
      obs::Registry::instance().counter("svc.ref.simulations").add(1);
    }
    // Key space: references live above the rig indices so backoff
    // jitter never correlates a reference with a same-index rig.
    guard = supervisor.run_guarded(
        (1ull << 32) + i, [&](const AttemptContext& ctx) {
          // Degraded attempt: count channels only, no probes.
          ref.print(options,
                    ctx.degraded ? options.channels.counts_only()
                                 : options.channels,
                    options.supervisor, "reference/" + std::to_string(i));
        });
    if (guard.status == RigStatus::kLost) return ref;
    // Persist only full-fidelity references: a degraded attempt ran
    // without its probes, and caching empty side-channel traces would
    // silently disarm those channels for every future campaign that
    // hits this key.
    if (cache != nullptr && guard.status != RigStatus::kDegraded) {
      cache->put(key, ref.entry);
    }
  }
  if (!options.save_captures_dir.empty()) {
    ref.entry.golden.save_binary(options.save_captures_dir + "/golden-" +
                                 std::to_string(i) + ".bin");
  }
  return ref;
}

/// One supervised attempt at rig `index`: it prints under its detector
/// feed with its chaos order applied and, when the campaign saves
/// captures, records the feed's calls as its session stream.  Only an
/// attempt that completes saves; a failed one throws first.
RigOutcome run_attempt(const FleetOptions& options, std::uint32_t index,
                       const RigSpec& spec, const Reference& ref,
                       const AttemptContext& ctx) {
  host::ChaosInjector injector(spec.chaos, ctx.attempt);
  const bool record = !options.save_captures_dir.empty();
  core::wire::SessionRecorder rec;
  if (record) {
    rec.hello({.rig_index = index,
               .seed = spec.seed,
               .cube_mm = spec.cube_mm,
               .height_mm = spec.height_mm,
               .name = spec.name,
               .sabotage = spec.sabotage.to_string(),
               .chaos = spec.chaos.to_string()});
  }
  // Degrade ladder: the final attempt falls back to the step-count
  // subset alone (the Supervisor's count-channels fallback), never to
  // more than the campaign asked for.
  const ChannelSet live =
      ctx.degraded ? options.channels.counts_only().intersect(options.channels)
                   : options.channels;
  DetectorFeed feed(options.session(live), ref.refs(options.use_oracle),
                    record ? &rec : nullptr);
  const OnlineDetector& detector = feed.detector();

  host::RigOptions ro;
  ro.firmware.jitter_seed = spec.seed;
  attach_probes(ro, live, spec.seed);
  // Safe-stopped rigs need no long post-kill physics observation.
  ro.post_kill_observation_s = 5.0;
  host::Rig rig(ro);
  if (options.safe_stop) {
    feed.on_alarm([&rig](const OnlineReport& r) {
      if (rig.firmware().state() == fw::FwState::kRunning) {
        rig.firmware().kill(std::string("fleet safe-stop: ") +
                            channel_name(r.first_channel) + " alarm");
      }
    });
  }

  // Producer: the board's UART tap, through the chaos stall gate (a
  // wedged producer tap).
  auto& uart = rig.board().fpga().uart();
  uart.on_transaction([&feed, &injector](const core::Transaction& txn) {
    if (injector.pass_transaction()) feed.txn(txn);
  });
  // Consumer: every pump period the probes' fresh samples stream into the
  // feed, then - unless chaos wedged the consumer, which the ring's
  // lossless backpressure absorbs (NOT a fault) - one slot of windows
  // drains.  A jammed power probe fails the attempt.  The first slot is
  // scheduled before the chaos crash and the watchdog: same-tick events
  // run in schedule order.
  std::vector<std::size_t> consumed(rig.probes().size(), 0);
  std::size_t slots_run = 0;
  std::function<void()> service;
  const auto schedule_service = [&] {
    rig.scheduler().schedule_in(options.pump.period,
                                [&service] { service(); });
  };
  service = [&] {
    ++slots_run;
    if (obs::enabled()) {
      static obs::Counter& slots =
          obs::Registry::instance().counter("svc.pump.slots");
      slots.add(1);
    }
    for (std::size_t p = 0; p < consumed.size(); ++p) {
      const plant::SideProbe& probe = *rig.probes()[p];
      if (probe.kind() == SampleKind::kPower && injector.jam_power()) {
        throw Error("chaos: power side-channel probe jammed");
      }
      for (; consumed[p] < probe.trace().size(); ++consumed[p]) {
        const plant::SideSample& s = probe.trace()[consumed[p]];
        feed.sample(probe.kind(), s.t_s, s.value);
      }
    }
    if (!injector.wedge_pump(slots_run)) feed.slot();
    schedule_service();
  };
  schedule_service();
  uart.on_finalize(
      [&feed](const core::Capture& capture) { feed.finish(capture); });
  injector.arm(rig);  // kCrash: scheduled mid-print throw
  const auto accepted = [&detector] {
    return detector.windows_processed() + detector.queued();
  };
  StallWatchdog dog(
      rig.scheduler(), options.supervisor,
      [&accepted] { return static_cast<std::uint64_t>(accepted()); },
      [&rig] { return rig.firmware().state() == fw::FwState::kRunning; },
      "rig/" + spec.name);

  host::RunResult res = rig.run(sabotaged_program(ref.program, spec.sabotage));
  if (injector.active()) {
    // Corrupt/truncate chaos mangles the serialized capture; the bounded
    // from_binary() must reject it (attempt failure).  For other kinds
    // this round trip is the identity.
    std::vector<std::uint8_t> wire = res.capture.to_binary();
    injector.mangle_capture(wire);
    res.capture = core::Capture::from_binary(wire);
  }
  // Stream integrity: a finished print whose detector accepted fewer
  // transactions than the capture carries means the tap wedged too late
  // for the watchdog - still an attempt failure.
  if (res.finished && accepted() < res.capture.size()) {
    throw Error("fleet: stream integrity: detector accepted " +
                std::to_string(accepted()) + " of " +
                std::to_string(res.capture.size()) +
                " transactions (capture tap wedged)");
  }

  RigOutcome out;
  out.spec = spec;
  out.print_finished = res.finished;
  out.kill_reason = res.kill_reason;
  out.safe_stopped =
      res.killed && res.kill_reason.rfind("fleet safe-stop", 0) == 0;
  out.sim_seconds = res.sim_seconds;
  out.final_counts = res.capture.final_counts;
  out.detector = detector.report();
  if (record) {
    rec.end({out.print_finished, out.safe_stopped, out.sim_seconds,
             out.final_counts});
    const std::string stem =
        options.save_captures_dir + "/" + sanitize(spec.name);
    res.capture.save_binary(stem + ".bin");
    rec.save(stem + ".ofs");
  }
  return out;
}

/// One rig under the supervisor's retry/quarantine loop, or quarantined
/// without simulating when its object's reference was lost.  A lost rig
/// keeps only its spec and verdict, no partial attempt state.
RigOutcome supervise_rig(const FleetOptions& options,
                         const Supervisor& supervisor, std::size_t i,
                         const RigSpec& spec, const Reference& ref,
                         const GuardOutcome& ref_guard) {
  RigOutcome out;
  GuardOutcome guard{RigStatus::kLost, 0,
                     "reference lost: " + ref_guard.failure_cause};
  if (ref_guard.status != RigStatus::kLost) {
    guard = supervisor.run_guarded(i, [&](const AttemptContext& ctx) {
      out = run_attempt(options, static_cast<std::uint32_t>(i), spec, ref,
                        ctx);
    });
  }
  if (guard.status == RigStatus::kLost) out = RigOutcome{};
  out.spec = spec;
  out.status = guard.status;
  out.attempts = guard.attempts;
  out.failure_cause = guard.failure_cause;
  return out;
}

/// Campaign checkpoint writer.  The references go to disk before any rig
/// runs (a kill during the rig phase must not cost the golden prints);
/// each completed rig is then inserted in spec order - so the bytes do
/// not depend on the worker count - and saved every `checkpoint_every`
/// completions.  Inert when the campaign does not checkpoint.
class CheckpointWriter {
 public:
  CheckpointWriter(const FleetOptions& options, std::uint64_t digest,
                   const std::vector<Reference>& refs,
                   const std::vector<std::optional<RigOutcome>>& prior)
      : path_(options.checkpoint_path), every_(options.checkpoint_every) {
    if (path_.empty()) return;
    ck_.spec_digest = digest;
    ck_.total_rigs = static_cast<std::uint32_t>(prior.size());
    // A lost reference's entry is empty: a resume re-runs it.
    for (const Reference& ref : refs) ck_.references.push_back(ref.entry);
    for (std::size_t i = 0; i < prior.size(); ++i) {
      if (prior[i]) ck_.done.emplace_back(static_cast<std::uint32_t>(i),
                                          *prior[i]);
    }
    ck_.save(path_);
  }

  /// Thread-safe: called by the pool's workers as rigs complete.
  void record(std::size_t i, const RigOutcome& out) {
    if (path_.empty()) return;
    const std::lock_guard<std::mutex> lock(mu_);
    const auto at = std::lower_bound(
        ck_.done.begin(), ck_.done.end(), i,
        [](const auto& entry, std::size_t index) {
          return entry.first < index;
        });
    ck_.done.emplace(at, static_cast<std::uint32_t>(i), out);
    if (++unsaved_ >= every_) flush();
  }

  /// Saves the completions since the last save, if any.
  void flush() {
    if (path_.empty() || unsaved_ == 0) return;
    unsaved_ = 0;
    ck_.save(path_);
  }

 private:
  std::string path_;
  std::size_t every_;
  Checkpoint ck_;
  std::mutex mu_;
  std::size_t unsaved_ = 0;
};

}  // namespace

FleetReport Fleet::run(const std::vector<RigSpec>& specs) {
  // Normalized specs: default names resolved up front so the campaign
  // digest, the checkpoint records, and the report all agree.
  std::vector<RigSpec> fleet(specs);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (fleet[i].name.empty()) fleet[i].name = "rig-" + std::to_string(i);
  }
  // Distinct objects, in first-seen order (deterministic grouping).
  std::vector<std::pair<double, double>> objects;
  std::vector<std::size_t> object_of(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::pair<double, double> key{fleet[i].cube_mm,
                                        fleet[i].height_mm};
    const auto it = std::find(objects.begin(), objects.end(), key);
    object_of[i] = static_cast<std::size_t>(it - objects.begin());
    if (it == objects.end()) objects.push_back(key);
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const host::ChaosSpec& chaos = fleet[i].chaos;
    if (chaos.enabled() && !host::live_drill(chaos.kind)) {
      throw Error("fleet: rig " + std::to_string(i) + " ('" + fleet[i].name +
                  "'): a live rig does not perform chaos '" +
                  chaos.to_string() +
                  "' (crash|stall|corrupt|truncate|powerjam|ringwedge)");
    }
  }
  if (!options_.save_captures_dir.empty()) {
    check_capture_files(fleet, objects.size(), options_.save_captures_dir,
                        options_.checkpoint_path);
  }

  host::ParallelRunner pool(options_.workers);
  const Supervisor supervisor(options_.supervisor);

  // Reference cache: opened once per campaign; its counters (and the
  // simulation counter it suppresses) register eagerly so a fully-warm
  // run still exports "svc.ref.simulations": 0 for the acceptance grep.
  const auto cache =
      options_.cache_dir.empty()
          ? nullptr
          : std::make_unique<RefCache>(RefCacheOptions{
                options_.cache_dir, options_.cache_max_bytes});
  if (obs::enabled()) {
    obs::Registry::instance().counter("svc.ref.simulations");
  }

  const std::uint64_t digest = campaign_digest(fleet, options_);
  Checkpoint resumed = resume_point(options_.resume_path, digest,
                                    fleet.size(), objects.size());
  std::vector<std::optional<RigOutcome>> prior(fleet.size());
  for (auto& [index, outcome] : resumed.done) prior[index] = std::move(outcome);

  // Reference phase.  Per-job wall-clock is written by worker threads
  // into index-addressed slots and merged in index order afterwards, so
  // the timings list is deterministic even though the values are not.
  std::vector<double> ref_seconds(objects.size(), 0.0);
  std::vector<GuardOutcome> ref_guards(objects.size());
  const std::vector<Reference> refs =
      pool.map<Reference>(objects.size(), [&](std::size_t i) {
        const obs::Span span("reference/" + std::to_string(i), "fleet");
        const auto t0 = std::chrono::steady_clock::now();
        Reference ref =
            reference_phase(options_, supervisor, cache.get(), i, objects[i],
                            resumed.references, ref_guards[i]);
        ref.set_means(options_.detector);
        ref_seconds[i] = obs::us_since(t0) / 1e6;
        return ref;
      });

  CheckpointWriter checkpoint(options_, digest, refs, prior);

  // Rigs still owed a verdict, in spec order.  stop_after truncates the
  // list deterministically (a checkpoint-kill drill for tests: the first
  // N pending rigs complete, the rest report kPending).
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (!prior[i]) pending.push_back(i);
  }
  const bool stopped_early =
      options_.stop_after > 0 && options_.stop_after < pending.size();
  if (stopped_early) pending.resize(options_.stop_after);

  // Fleet phase: every pending rig prints under its own detector, inside
  // the supervisor's retry/quarantine loop.
  std::vector<double> rig_seconds(fleet.size(), 0.0);
  std::vector<RigOutcome> fresh =
      pool.map<RigOutcome>(pending.size(), [&](std::size_t k) {
        const std::size_t i = pending[k];
        const obs::Span span("rig/" + fleet[i].name, "fleet");
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t obj = object_of[i];
        RigOutcome out = supervise_rig(options_, supervisor, i, fleet[i],
                                       refs[obj], ref_guards[obj]);
        rig_seconds[i] = obs::us_since(t0) / 1e6;
        checkpoint.record(i, out);
        return out;
      });
  checkpoint.flush();  // the tail short of checkpoint_every

  // Assemble: prior (resumed) outcomes, this process's outcomes, and
  // kPending placeholders for rigs behind a stop_after cut.
  FleetReport report;
  report.complete = !stopped_early;
  report.rigs.resize(fleet.size());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    report.rigs[i].spec = fleet[i];
    report.rigs[i].status = RigStatus::kPending;
    report.rigs[i].attempts = 0;
    if (prior[i]) report.rigs[i] = std::move(*prior[i]);
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    report.rigs[pending[k]] = std::move(fresh[k]);
  }

  // Deterministic order: references by object index, then the rigs
  // actually simulated by THIS process, by spec index - resumed rigs
  // deliberately never appear here, which is how tests assert they were
  // skipped rather than re-printed.
  report.timings.reserve(objects.size() + pending.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    report.timings.push_back(
        {"reference/" + std::to_string(i), ref_seconds[i]});
  }
  for (const std::size_t i : pending) {
    report.timings.push_back({"rig/" + fleet[i].name, rig_seconds[i]});
  }
  return report;
}

std::vector<RigSpec> Fleet::demo_specs(std::size_t n,
                                       std::size_t sabotaged) {
  if (sabotaged > n) {
    throw Error("fleet: cannot sabotage more rigs than the fleet has");
  }
  // The strongly windowed-detectable half of Table II: these diverge from
  // the golden stream fast enough to catch mid-print (the 2% reduction
  // is a post-print-only catch; see EXPERIMENTS.md E10).
  const std::array<Sabotage, 4> variants{
      Sabotage{Sabotage::Kind::kReduction, 0.5, 0},
      Sabotage{Sabotage::Kind::kRelocation, 0.0, 5},
      Sabotage{Sabotage::Kind::kReduction, 0.85, 0},
      Sabotage{Sabotage::Kind::kRelocation, 0.0, 10},
  };
  std::vector<RigSpec> specs(n);
  for (std::size_t i = 0; i < n; ++i) {
    specs[i].name = "rig-" + std::to_string(i);
    specs[i].seed = 1000 + i;
  }
  // Spread the sabotaged rigs evenly through the fleet.
  for (std::size_t j = 0; j < sabotaged; ++j) {
    specs[j * n / sabotaged].sabotage = variants[j % variants.size()];
  }
  return specs;
}

namespace {

/// Fleet::specs_from_json, throwing without the "fleet spec: " prefix.
std::vector<RigSpec> parse_fleet_spec(const std::string& text,
                                      FleetOptions& options) {
  const json::Value doc = json::parse(text);
  if (!doc.is_object()) throw Error("root must be an object");
  check_spec_keys(doc, kDocumentKeys, "");
  if (const json::Value* rigs = doc.find("rigs"); rigs != nullptr) {
    for (std::size_t i = 0; i < rigs->items.size(); ++i) {
      const json::Value& r = rigs->items[i];
      const std::string where = "rig " + std::to_string(i) + ": ";
      if (!r.is_object()) throw Error(where + "must be an object");
      check_spec_keys(r, kRigKeys, where);
    }
  }

  options.workers = spec_integer(doc, "workers", options.workers);
  options.safe_stop = doc.bool_or("safe_stop", options.safe_stop);
  options.use_oracle = doc.bool_or("use_oracle", options.use_oracle);
  // Back-compat: "use_power" predates the channel set and only gates the
  // power channel; "channels" (a ChannelSet::parse list) wins when given,
  // and an empty list is an error, as it is for --channels.
  options.channels.power =
      doc.bool_or("use_power", options.channels.power);
  if (const json::Value* channel_list = doc.find("channels")) {
    try {
      options.channels = ChannelSet::parse(channel_list->string);
    } catch (const std::exception& e) {
      throw Error(std::string("\"channels\": ") + e.what());
    }
  }
  options.reference_seed =
      spec_integer(doc, "reference_seed", options.reference_seed);
  options.save_captures_dir =
      doc.string_or("save_captures_dir", options.save_captures_dir);
  options.cache_dir = doc.string_or("cache", options.cache_dir);
  const double cache_bytes =
      doc.number_or("cache_max_mb",
                    static_cast<double>(options.cache_max_bytes) /
                        (1024.0 * 1024.0)) *
      1024.0 * 1024.0;
  if (!(cache_bytes >= 0.0 && cache_bytes < std::ldexp(1.0, 64))) {
    throw Error("\"cache_max_mb\" must be a non-negative size in MiB");
  }
  options.cache_max_bytes = static_cast<std::uint64_t>(cache_bytes);
  options.detector.ring_capacity = spec_integer<std::size_t>(
      doc, "ring_capacity", options.detector.ring_capacity, 1);
  options.supervisor.max_attempts = spec_integer<std::uint32_t>(
      doc, "max_attempts", options.supervisor.max_attempts, 1);
  options.supervisor.backoff_base_ms =
      spec_integer(doc, "backoff_ms", options.supervisor.backoff_base_ms);
  options.supervisor.stall_timeout_s = doc.number_or(
      "stall_timeout_s", options.supervisor.stall_timeout_s);
  if (!(options.supervisor.stall_timeout_s > 0.0)) {
    throw Error(
        "\"stall_timeout_s\" must be a positive number of simulated "
        "seconds");
  }
  options.checkpoint_path =
      doc.string_or("checkpoint", options.checkpoint_path);
  options.checkpoint_every = spec_integer<std::size_t>(
      doc, "checkpoint_every", options.checkpoint_every, 1);

  const json::Value* rigs = doc.find("rigs");
  if (rigs == nullptr || !rigs->is_array()) {
    throw Error("wants a \"rigs\" array");
  }
  std::vector<RigSpec> specs;
  specs.reserve(rigs->items.size());
  for (const json::Value& r : rigs->items) {
    RigSpec spec;
    try {
      spec.name = r.string_or("name", "");
      spec.seed =
          spec_integer<std::uint64_t>(r, "seed", 1000 + specs.size());
      spec.cube_mm = r.number_or("cube_mm", spec.cube_mm);
      spec.height_mm = r.number_or("height_mm", spec.height_mm);
      check_object(spec.cube_mm, spec.height_mm);
      spec.sabotage = parse_sabotage(r.string_or("sabotage", ""));
      spec.chaos = host::parse_chaos(r.string_or("chaos", ""));
    } catch (const Error& e) {
      throw Error("rig " + std::to_string(specs.size()) + ": " + e.what());
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

std::vector<RigSpec> Fleet::specs_from_json(const std::string& text,
                                            FleetOptions& options) {
  try {
    return parse_fleet_spec(text, options);
  } catch (const Error& e) {
    throw Error(std::string("fleet spec: ") + e.what());
  }
}

}  // namespace offramps::svc
