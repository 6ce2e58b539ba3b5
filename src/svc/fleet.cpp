#include "svc/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>

#include "analyze/analyzer.hpp"
#include "core/strict_parse.hpp"
#include "gcode/flaw3d.hpp"
#include "host/parallel_runner.hpp"
#include "host/rig.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"
#include "core/session_wire.hpp"
#include "svc/checkpoint.hpp"
#include "svc/json.hpp"
#include "svc/ref_cache.hpp"

namespace offramps::svc {

std::string Sabotage::to_string() const {
  char buf[48];
  switch (kind) {
    case Kind::kNone: return "clean";
    case Kind::kReduction:
      std::snprintf(buf, sizeof(buf), "reduce:%.2f", factor);
      return buf;
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
    const auto n = core::parse_long(arg);
    if (!n || *n < 1 || *n > 0xFFFFFFFFll) {
      throw Error("sabotage: relocate wants a positive move count: \"" +
                  text + "\"");
    }
    s.kind = Sabotage::Kind::kRelocation;
    s.every_n = static_cast<std::uint32_t>(*n);
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

/// Escapes arbitrary bytes (rig names, failure causes) for a JSON string,
/// which may hold no raw control character.
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// An optional integer member of a fleet spec.  Absent (or not a
/// number) keeps `fallback`; a value that is not a finite integer in
/// [min, T's maximum] throws, naming the key - a config typo must not
/// reach a cast.
template <typename T>
T spec_integer(const json::Value& doc, const std::string& key, T fallback,
               T min = 0) {
  const json::Value* v = doc.find(key);
  if (v == nullptr || v->kind != json::Value::Kind::kNumber) return fallback;
  const double d = v->number;
  // 2^digits is the first value past T's range, exactly a double.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(d >= static_cast<double>(min) && d < limit) || d != std::floor(d)) {
    throw Error("fleet spec: \"" + key + "\" must be an integer in [" +
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
    out += "    {\n      \"name\": \"";
    out += json_escape(r.spec.name);
    std::snprintf(buf, sizeof(buf),
                  "\",\n      \"seed\": %llu,\n"
                  "      \"cube_mm\": %.6f,\n      \"height_mm\": %.6f,\n"
                  "      \"sabotage\": \"%s\",\n",
                  static_cast<unsigned long long>(r.spec.seed),
                  r.spec.cube_mm, r.spec.height_mm,
                  r.spec.sabotage.to_string().c_str());
    out += buf;
    out += "      \"chaos\": \"";
    out += r.spec.chaos.to_string();
    out += "\",\n      \"status\": \"";
    out += rig_status_name(r.status);
    std::snprintf(buf, sizeof(buf), "\",\n      \"attempts\": %u,\n",
                  r.attempts);
    out += buf;
    // failure_cause carries arbitrary exception text - append it through
    // the escaper, never through a fixed snprintf buffer.
    out += "      \"failure_cause\": \"";
    out += json_escape(r.failure_cause);
    out += "\",\n";
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
    // Per-channel attribution: one row per registered channel of this
    // rig's detector, in fusion (registration) order.
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
  char buf[64];
  std::string out = "{\n    \"phases\": {";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "      \"";
    out += json_escape(timings[i].name);
    std::snprintf(buf, sizeof(buf), "\": %.6f", timings[i].seconds);
    out += buf;
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
  // (Every run used to get the probe defaults verbatim, so the whole
  // farm shared one noise sequence - two rigs' "independent" sensors
  // were bit-identical.)
  if (channels.power) {
    plant::PowerProbeOptions po;
    po.noise_seed = plant::probe_noise_seed(seed, po.noise_seed);
    ro.power_probe = po;
  }
  if (channels.acoustic) {
    plant::AcousticProbeOptions ao;
    ao.noise_seed = plant::probe_noise_seed(seed, ao.noise_seed);
    ro.acoustic_probe = ao;
  }
  if (channels.vibration) {
    plant::VibrationProbeOptions vo;
    vo.noise_seed = plant::probe_noise_seed(seed, vo.noise_seed);
    ro.vibration_probe = vo;
  }
}

namespace {

/// Per-object reference data shared by every rig printing that object.
struct Reference {
  gcode::Program program;       // clean sliced program
  analyze::Oracle oracle;
  RefEntry entry;               // golden capture + side-channel traces
};

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

}  // namespace

FleetReport Fleet::run(const std::vector<RigSpec>& specs) {
  host::ParallelRunner pool(options_.workers);
  const Supervisor supervisor(options_.supervisor);

  // Reference cache: opened once per campaign; its counters (and the
  // simulation counter it suppresses) register eagerly so a fully-warm
  // run still exports "svc.ref.simulations": 0 for the acceptance grep.
  std::unique_ptr<RefCache> ref_cache;
  if (!options_.cache_dir.empty()) {
    ref_cache = std::make_unique<RefCache>(
        RefCacheOptions{options_.cache_dir, options_.cache_max_bytes});
  }
#if OFFRAMPS_OBS_ENABLED
  if (obs::enabled()) {
    obs::Registry::instance().counter("svc.ref.simulations");
  }
#endif

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

  const std::uint64_t digest = campaign_digest(fleet, options_);

  // Resume: pull prior outcomes and golden references out of the
  // checkpoint.  A digest mismatch is a hard error - resuming with
  // edited specs or options would silently skew results.
  std::vector<char> already_done(fleet.size(), 0);
  std::vector<RigOutcome> prior(fleet.size());
  std::vector<RefEntry> ref_snapshots(objects.size());
  std::vector<char> have_snapshot(objects.size(), 0);
  if (!options_.resume_path.empty()) {
    Checkpoint ck = Checkpoint::load(options_.resume_path);
    if (ck.spec_digest != digest) {
      throw Error(
          "checkpoint: spec digest mismatch - this checkpoint was written "
          "by a different campaign (specs or options changed)");
    }
    if (ck.total_rigs != fleet.size()) {
      throw Error("checkpoint: rig count mismatch with the fleet spec");
    }
    if (ck.references.size() > objects.size()) {
      throw Error("checkpoint: more references than the fleet has objects");
    }
    for (std::size_t j = 0; j < ck.references.size(); ++j) {
      if (ck.references[j].golden.empty()) continue;  // degraded/lost ref
      ref_snapshots[j] = std::move(ck.references[j]);
      have_snapshot[j] = 1;
    }
    for (auto& [index, outcome] : ck.done) {
      already_done[index] = 1;
      prior[index] = std::move(outcome);
    }
  }

  // Per-job wall-clock, written by worker threads into index-addressed
  // slots (no sharing) and merged in index order afterwards, so the
  // timings list is deterministic even though the values are wall-clock.
  std::vector<double> ref_seconds(objects.size(), 0.0);
  std::vector<double> rig_seconds(fleet.size(), 0.0);
  const auto seconds_since =
      [](std::chrono::steady_clock::time_point t0) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
      };

  // Reference phase: slice + oracle + one golden print per object, each
  // print supervised (retry on throw, sim-clocked stall watchdog).  On
  // resume the golden references come from the checkpoint and only the
  // cheap deterministic slice + oracle are recomputed.
  std::vector<GuardOutcome> ref_guards(objects.size());
  std::vector<Reference> refs = pool.map<Reference>(
      objects.size(), [&](std::size_t i) {
        const obs::Span span("reference/" + std::to_string(i), "fleet");
        const auto job_t0 = std::chrono::steady_clock::now();
        Reference ref;
        const host::CubeSpec cube{.size_x_mm = objects[i].first,
                                  .size_y_mm = objects[i].first,
                                  .height_mm = objects[i].second,
                                  .center_x_mm = 110.0,
                                  .center_y_mm = 100.0};
        ref.program = host::slice_cube(cube, options_.profile);
        ref.oracle =
            analyze::analyze_program(ref.program, fw::Config{}).oracle;

        if (have_snapshot[i]) {
          ref.entry = std::move(ref_snapshots[i]);
          ref_guards[i] = GuardOutcome{RigStatus::kOk, 0, {}};
          ref_seconds[i] = seconds_since(job_t0);
          return ref;
        }

        // Content-addressed cache: a hit replaces the golden print
        // entirely (the slice + oracle above are cheap and always
        // recomputed; only the simulation is worth persisting).
        const std::uint64_t ref_key = reference_digest(
            objects[i].first, objects[i].second, options_.profile,
            options_.reference_seed, options_.channels);
        if (ref_cache) {
          if (auto hit = ref_cache->get(ref_key)) {
            ref.entry = std::move(*hit);
            ref_guards[i] = GuardOutcome{RigStatus::kOk, 0, {}};
            if (!options_.save_captures_dir.empty()) {
              ref.entry.golden.save_binary(options_.save_captures_dir +
                                           "/golden-" + std::to_string(i) +
                                           ".bin");
            }
            ref_seconds[i] = seconds_since(job_t0);
            return ref;
          }
        }
#if OFFRAMPS_OBS_ENABLED
        if (obs::enabled()) {
          obs::Registry::instance().counter("svc.ref.simulations").add(1);
        }
#endif

        // Key space: references live above the rig indices so backoff
        // jitter never correlates a reference with a same-index rig.
        ref_guards[i] = supervisor.run_guarded(
            (1ull << 32) + i, [&](const AttemptContext& ctx) {
              host::RigOptions ro;
              ro.firmware.jitter_seed = options_.reference_seed;
              // Degraded attempt: count channels only, no probes.
              const ChannelSet probes = ctx.degraded
                                            ? options_.channels.counts_only()
                                            : options_.channels;
              attach_probes(ro, probes, options_.reference_seed);
              host::Rig rig(ro);
              std::uint64_t txns = 0;
              rig.board().fpga().uart().on_transaction(
                  [&txns](const core::Transaction&) { ++txns; });
              StallWatchdog dog(
                  rig.scheduler(), options_.supervisor,
                  [&txns] { return txns; },
                  [&rig] {
                    return rig.firmware().state() == fw::FwState::kRunning;
                  },
                  "reference/" + std::to_string(i));
              host::RunResult res = rig.run(ref.program);
              if (!res.finished) {
                throw Error("fleet: reference print did not finish");
              }
              ref.entry = {std::move(res.capture), std::move(res.power_trace),
                           std::move(res.acoustic_trace),
                           std::move(res.vibration_trace)};
            });
        if (ref_guards[i].status == RigStatus::kLost) {
          ref.entry = RefEntry{};
        } else {
          // Persist only full-fidelity references: a degraded attempt
          // ran without its probes, and caching empty side-channel
          // traces would silently disarm those channels for every
          // future campaign that hits this key.
          if (ref_cache && (ref_guards[i].status == RigStatus::kOk ||
                            ref_guards[i].status == RigStatus::kRecovered)) {
            ref_cache->put(ref_key, ref.entry);
          }
          if (!options_.save_captures_dir.empty()) {
            ref.entry.golden.save_binary(options_.save_captures_dir +
                                         "/golden-" + std::to_string(i) +
                                         ".bin");
          }
        }
        ref_seconds[i] = seconds_since(job_t0);
        return ref;
      });

  // Checkpoint writer.  One Checkpoint object is reused across saves
  // (references are filled once); rig completions append under the lock.
  Checkpoint ck_out;
  std::mutex ck_mu;
  std::size_t completed_since_save = 0;
  const bool checkpointing = !options_.checkpoint_path.empty();
  if (checkpointing) {
    ck_out.spec_digest = digest;
    ck_out.total_rigs = static_cast<std::uint32_t>(fleet.size());
    ck_out.references.resize(objects.size());
    for (std::size_t j = 0; j < objects.size(); ++j) {
      if (ref_guards[j].status == RigStatus::kLost) continue;
      ck_out.references[j] = refs[j].entry;
    }
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (already_done[i]) {
        ck_out.done.emplace_back(static_cast<std::uint32_t>(i), prior[i]);
      }
    }
    // Persist the reference work immediately: a kill during the rig
    // phase must not cost the golden prints.
    ck_out.save(options_.checkpoint_path);
  }

  // Rigs still owed a verdict, in spec order.  stop_after truncates the
  // list deterministically (a checkpoint-kill drill for tests: the first
  // N pending rigs complete, the rest report kPending).
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (!already_done[i]) pending.push_back(i);
  }
  bool stopped_early = false;
  if (options_.stop_after > 0 && options_.stop_after < pending.size()) {
    pending.resize(options_.stop_after);
    stopped_early = true;
  }

  // Fleet phase: every pending rig prints under its own online detector,
  // inside the supervisor's retry/quarantine loop, with its chaos order
  // (if any) applied per attempt.
  std::vector<RigOutcome> fresh = pool.map<RigOutcome>(
      pending.size(), [&](std::size_t k) {
    const std::size_t i = pending[k];
    const RigSpec& spec = fleet[i];
    const obs::Span span("rig/" + spec.name, "fleet");
    const auto job_t0 = std::chrono::steady_clock::now();
    const std::size_t obj = object_of[i];
    const Reference& ref = refs[obj];

    RigOutcome out;
    out.spec = spec;
    if (ref_guards[obj].status == RigStatus::kLost) {
      // No golden reference to compare against: quarantine without
      // simulating.
      out.status = RigStatus::kLost;
      out.attempts = 0;
      out.failure_cause =
          "reference lost: " + ref_guards[obj].failure_cause;
    } else {
      const GuardOutcome guard = supervisor.run_guarded(i, [&](
          const AttemptContext& ctx) {
        host::ChaosInjector injector(spec.chaos, ctx.attempt);
        RigOutcome attempt_out;
        attempt_out.spec = spec;

        // Session recording: every detector call of this attempt, in
        // exact call order (txn after the stall gate, power before the
        // slot's poll, poll only when the wedge gate passes), so a
        // daemon --replay of the stream reproduces the verdict byte for
        // byte without the simulator.  Only the attempt that completes
        // reaches save(); failed attempts throw out of run_guarded
        // first.
        const bool record = !options_.save_captures_dir.empty();
        core::wire::SessionRecorder rec;
        if (record) {
          rec.hello({.rig_index = static_cast<std::uint32_t>(i),
                     .seed = spec.seed,
                     .cube_mm = spec.cube_mm,
                     .height_mm = spec.height_mm,
                     .name = spec.name,
                     .sabotage = spec.sabotage.to_string(),
                     .chaos = spec.chaos.to_string()});
        }

        // Degrade ladder: the final attempt falls back to the step-count
        // subset alone (the Supervisor's count-channels fallback), never
        // to more than the campaign asked for.
        const ChannelSet live =
            ctx.degraded
                ? options_.channels.counts_only().intersect(options_.channels)
                : options_.channels;

        OnlineDetectorOptions det_opts = options_.detector;
        det_opts.channels = live;
        const analyze::Oracle* oracle =
            options_.use_oracle && ref.oracle.counters_armed ? &ref.oracle
                                                             : nullptr;
        OnlineDetector detector(det_opts, ref.entry.refs(oracle));

        host::RigOptions ro;
        ro.firmware.jitter_seed = spec.seed;
        attach_probes(ro, live, spec.seed);
        // Safe-stopped rigs need no long post-kill physics observation.
        ro.post_kill_observation_s = 5.0;
        host::Rig rig(ro);

        if (options_.safe_stop) {
          detector.on_alarm([&rig](const OnlineReport& r) {
            if (rig.firmware().state() == fw::FwState::kRunning) {
              rig.firmware().kill(std::string("fleet safe-stop: ") +
                                  channel_name(r.first_channel) + " alarm");
            }
          });
        }

        // Producer: the board's UART tap feeds the detector's ring,
        // through the chaos stall gate (a wedged producer tap).
        rig.board().fpga().uart().on_transaction(
            [&detector, &injector, &rec, record](
                const core::Transaction& txn) {
              if (injector.pass_transaction()) {
                if (record) rec.txn(txn);
                detector.submit(txn);
              }
            });

        // Consumer: clock-slaved pump, plus live side-channel streaming.
        // The chaos ring-wedge gate stops the pump draining; the ring's
        // lossless backpressure must absorb that, so it is NOT a fault.
        Pump pump(rig.scheduler(), detector, options_.pump);
        // The kSlot marker is recorded from inside the gate - after the
        // sample hook ran, only when the poll actually happens - so the
        // replayed submit-samples-then-poll order matches the live one.
        pump.set_gate([&injector, &pump, &rec, record] {
          const bool go = !injector.wedge_pump(pump.slots_run());
          if (go && record) rec.slot();
          return go;
        });
        std::vector<std::size_t> consumed(rig.probes().size(), 0);
        pump.on_slot([&rig, &detector, &consumed, &injector, &rec, record] {
          for (std::size_t p = 0; p < consumed.size(); ++p) {
            const plant::SideProbe& probe = *rig.probes()[p];
            const SampleKind kind = probe.kind();
            if (kind == SampleKind::kPower && injector.jam_power()) {
              throw Error("chaos: power side-channel probe jammed");
            }
            const plant::SideTrace& trace = probe.trace();
            for (; consumed[p] < trace.size(); ++consumed[p]) {
              const plant::SideSample& s = trace[consumed[p]];
              if (record) {
                // Power keeps its dedicated frame so pre-multi-modal
                // corpora stay replayable; the rest ride kSample.
                if (kind == SampleKind::kPower) {
                  rec.power(s.t_s, s.value);
                } else {
                  rec.sample(static_cast<std::uint8_t>(kind), s.t_s,
                             s.value);
                }
              }
              detector.submit_sample(kind, s.t_s, s.value);
            }
          }
        });

        // End of stream: the UART's finalize tap hands the frozen
        // capture to the detector for the end-of-print checks.
        rig.board().fpga().uart().on_finalize(
            [&detector, &rec, record](const core::Capture& capture) {
              if (record) rec.finish(capture);
              detector.finish(capture);
            });

        injector.arm(rig);  // kCrash: scheduled mid-print throw
        StallWatchdog dog(
            rig.scheduler(), options_.supervisor,
            [&detector] {
              return static_cast<std::uint64_t>(
                  detector.windows_processed() + detector.queued());
            },
            [&rig] {
              return rig.firmware().state() == fw::FwState::kRunning;
            },
            "rig/" + spec.name);

        const gcode::Program program =
            sabotaged_program(ref.program, spec.sabotage);
        host::RunResult res = rig.run(program);

        if (injector.active()) {
          // Corrupt/truncate chaos mangles the serialized capture; the
          // bounded from_binary() must reject it (attempt failure).  For
          // other kinds this round trip is the identity.
          std::vector<std::uint8_t> wire = res.capture.to_binary();
          injector.mangle_capture(wire);
          res.capture = core::Capture::from_binary(wire);
        }
        // Stream integrity: a finished print whose detector accepted
        // fewer transactions than the capture carries means the tap
        // wedged too late for the watchdog - still an attempt failure.
        const std::size_t accepted =
            detector.windows_processed() + detector.queued();
        if (res.finished && accepted < res.capture.size()) {
          throw Error("fleet: stream integrity: detector accepted " +
                      std::to_string(accepted) + " of " +
                      std::to_string(res.capture.size()) +
                      " transactions (capture tap wedged)");
        }

        attempt_out.print_finished = res.finished;
        attempt_out.kill_reason = res.kill_reason;
        attempt_out.safe_stopped =
            res.killed && res.kill_reason.rfind("fleet safe-stop", 0) == 0;
        attempt_out.sim_seconds = res.sim_seconds;
        attempt_out.final_counts = res.capture.final_counts;
        attempt_out.detector = detector.report();
        if (record) {
          rec.end({attempt_out.print_finished, attempt_out.safe_stopped,
                   attempt_out.sim_seconds, attempt_out.final_counts});
          res.capture.save_binary(options_.save_captures_dir + "/" +
                                  sanitize(spec.name) + ".bin");
          rec.save(options_.save_captures_dir + "/" + sanitize(spec.name) +
                   ".ofs");
        }
        out = std::move(attempt_out);
      });
      out.status = guard.status;
      out.attempts = guard.attempts;
      out.failure_cause = guard.failure_cause;
      if (guard.status == RigStatus::kLost) {
        // Quarantined: drop any partial attempt state so the record is
        // a clean default + verdict.
        RigOutcome lost;
        lost.spec = spec;
        lost.status = RigStatus::kLost;
        lost.attempts = guard.attempts;
        lost.failure_cause = guard.failure_cause;
        out = std::move(lost);
      }
    }
    rig_seconds[i] = seconds_since(job_t0);

    if (checkpointing) {
      const std::lock_guard<std::mutex> lock(ck_mu);
      ck_out.done.emplace_back(static_cast<std::uint32_t>(i), out);
      if (++completed_since_save >= options_.checkpoint_every) {
        completed_since_save = 0;
        ck_out.save(options_.checkpoint_path);
      }
    }
    return out;
  });

  // Assemble: prior (resumed) outcomes, this process's outcomes, and
  // kPending placeholders for rigs behind a stop_after cut.
  FleetReport report;
  report.rigs.resize(fleet.size());
  std::vector<char> covered = already_done;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (already_done[i]) report.rigs[i] = std::move(prior[i]);
  }
  for (std::size_t k = 0; k < pending.size(); ++k) {
    covered[pending[k]] = 1;
    report.rigs[pending[k]] = std::move(fresh[k]);
  }
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    if (covered[i]) continue;
    RigOutcome p;
    p.spec = fleet[i];
    p.status = RigStatus::kPending;
    p.attempts = 0;
    report.rigs[i] = std::move(p);
  }
  report.complete = !stopped_early;

  if (checkpointing && completed_since_save > 0) {
    ck_out.save(options_.checkpoint_path);  // tail < checkpoint_every
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
    report.timings.push_back(
        {"rig/" + report.rigs[i].spec.name, rig_seconds[i]});
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

std::vector<RigSpec> Fleet::specs_from_json(const std::string& text,
                                            FleetOptions& options) {
  const json::Value doc = json::parse(text);
  if (!doc.is_object()) throw Error("fleet spec: root must be an object");

  options.workers = spec_integer(doc, "workers", options.workers);
  options.safe_stop = doc.bool_or("safe_stop", options.safe_stop);
  options.use_oracle = doc.bool_or("use_oracle", options.use_oracle);
  // Back-compat: "use_power" predates the channel set and only gates the
  // power channel; "channels" (a ChannelSet::parse list) wins when given.
  options.channels.power =
      doc.bool_or("use_power", options.channels.power);
  const std::string channel_list = doc.string_or("channels", "");
  if (!channel_list.empty()) {
    try {
      options.channels = ChannelSet::parse(channel_list);
    } catch (const std::exception& e) {
      throw Error(std::string("fleet spec: ") + e.what());
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
    throw Error(
        "fleet spec: \"cache_max_mb\" must be a non-negative size in MiB");
  }
  options.cache_max_bytes = static_cast<std::uint64_t>(cache_bytes);
  options.detector.ring_capacity = spec_integer<std::size_t>(
      doc, "ring_capacity", options.detector.ring_capacity, 1);
  options.supervisor.max_attempts =
      spec_integer(doc, "max_attempts", options.supervisor.max_attempts);
  options.supervisor.backoff_base_ms =
      spec_integer(doc, "backoff_ms", options.supervisor.backoff_base_ms);
  options.supervisor.stall_timeout_s = doc.number_or(
      "stall_timeout_s", options.supervisor.stall_timeout_s);
  options.checkpoint_path =
      doc.string_or("checkpoint", options.checkpoint_path);
  options.checkpoint_every =
      spec_integer(doc, "checkpoint_every", options.checkpoint_every);

  const json::Value* rigs = doc.find("rigs");
  if (rigs == nullptr || !rigs->is_array()) {
    throw Error("fleet spec: wants a \"rigs\" array");
  }
  std::vector<RigSpec> specs;
  specs.reserve(rigs->items.size());
  for (const json::Value& r : rigs->items) {
    if (!r.is_object()) {
      throw Error("fleet spec: every rig entry must be an object");
    }
    RigSpec spec;
    spec.name = r.string_or("name", "");
    spec.seed = spec_integer<std::uint64_t>(r, "seed", 1000 + specs.size());
    spec.cube_mm = r.number_or("cube_mm", spec.cube_mm);
    spec.height_mm = r.number_or("height_mm", spec.height_mm);
    spec.sabotage = parse_sabotage(r.string_or("sabotage", ""));
    spec.chaos = host::parse_chaos(r.string_or("chaos", ""));
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace offramps::svc
