#include "svc/checkpoint.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"

namespace offramps::svc {

namespace {

// ---------------------------------------------------------------- writer

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

// ---------------------------------------------------------------- reader

/// Bounded little-endian reader: every read is preceded by need(), and
/// every count is checked against the bytes actually left, so a lying
/// length prefix fails *before* any allocation (same discipline as
/// core::Capture::from_binary).
struct Rd {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return size - pos; }

  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      throw Error(std::string("checkpoint: truncated input reading ") + what);
    }
  }

  std::uint8_t u8(const char* what) {
    need(1, what);
    return data[pos++];
  }

  std::uint16_t u16(const char* what) {
    need(2, what);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v |= static_cast<std::uint16_t>(data[pos++]) << (8 * i);
    }
    return v;
  }

  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
    }
    return v;
  }

  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
    }
    return v;
  }

  std::int64_t i64(const char* what) {
    return static_cast<std::int64_t>(u64(what));
  }

  double f64(const char* what) {
    const std::uint64_t bits = u64(what);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str(const char* what) {
    const std::uint32_t n = u32(what);
    need(n, what);
    std::string s(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return s;
  }
};

template <typename Enum>
Enum checked_enum(std::uint8_t raw, std::uint8_t max, const char* what) {
  if (raw > max) {
    throw Error(std::string("checkpoint: out-of-range ") + what + " value " +
                std::to_string(raw));
  }
  return static_cast<Enum>(raw);
}

// ------------------------------------------------------- outcome records

void put_outcome(std::vector<std::uint8_t>& out, const RigOutcome& r) {
  put_str(out, r.spec.name);
  put_u64(out, r.spec.seed);
  put_f64(out, r.spec.cube_mm);
  put_f64(out, r.spec.height_mm);
  put_u8(out, static_cast<std::uint8_t>(r.spec.sabotage.kind));
  put_f64(out, r.spec.sabotage.factor);
  put_u32(out, r.spec.sabotage.every_n);
  put_u8(out, static_cast<std::uint8_t>(r.spec.chaos.kind));
  put_u32(out, r.spec.chaos.fires_for);
  put_f64(out, r.spec.chaos.crash_at_s);
  put_u32(out, r.spec.chaos.after);

  put_u8(out, static_cast<std::uint8_t>(r.status));
  put_u32(out, r.attempts);
  put_str(out, r.failure_cause);

  put_u8(out, r.print_finished ? 1 : 0);
  put_u8(out, r.safe_stopped ? 1 : 0);
  put_str(out, r.kill_reason);
  put_f64(out, r.sim_seconds);
  for (const std::int64_t c : r.final_counts) put_i64(out, c);

  const OnlineReport& d = r.detector;
  put_u8(out, d.alarmed ? 1 : 0);
  put_u8(out, d.alarmed_mid_print ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(d.first_channel));
  put_u32(out, d.alarm_window);
  put_u64(out, d.alarm_tick_ns);
  put_u64(out, d.alarm_gcode_line);
  put_u64(out, d.windows_processed);
  put_u64(out, d.ring_high_water);
  put_u64(out, d.backpressure_stalls);
  put_u8(out, d.stream_finished ? 1 : 0);

  // Per-channel verdict rows, persisted whole: the report renders every
  // field of the attribution array and derives its per-channel counts
  // from them.
  put_u8(out, static_cast<std::uint8_t>(d.channels.size()));
  for (const ChannelVerdict& v : d.channels) {
    put_u8(out, static_cast<std::uint8_t>(v.channel));
    put_u8(out, v.armed ? 1 : 0);
    put_u8(out, v.tripped ? 1 : 0);
    put_u32(out, v.trip_window);
    put_u64(out, v.windows_compared);
    put_u64(out, v.mismatches);
  }
}

RigOutcome read_outcome(Rd& r) {
  RigOutcome out;
  out.spec.name = r.str("rig name");
  out.spec.seed = r.u64("rig seed");
  out.spec.cube_mm = r.f64("rig cube_mm");
  out.spec.height_mm = r.f64("rig height_mm");
  out.spec.sabotage.kind = checked_enum<Sabotage::Kind>(
      r.u8("sabotage kind"), 2, "sabotage kind");
  out.spec.sabotage.factor = r.f64("sabotage factor");
  out.spec.sabotage.every_n = r.u32("sabotage every_n");
  out.spec.chaos.kind =
      checked_enum<host::ChaosKind>(r.u8("chaos kind"), 9, "chaos kind");
  out.spec.chaos.fires_for = r.u32("chaos fires_for");
  out.spec.chaos.crash_at_s = r.f64("chaos crash_at_s");
  out.spec.chaos.after = r.u32("chaos after");

  out.status = checked_enum<RigStatus>(r.u8("rig status"), 4, "rig status");
  out.attempts = r.u32("rig attempts");
  out.failure_cause = r.str("failure cause");

  out.print_finished = r.u8("print_finished") != 0;
  out.safe_stopped = r.u8("safe_stopped") != 0;
  out.kill_reason = r.str("kill reason");
  out.sim_seconds = r.f64("sim_seconds");
  for (std::int64_t& c : out.final_counts) c = r.i64("final counts");

  OnlineReport& d = out.detector;
  d.alarmed = r.u8("alarmed") != 0;
  d.alarmed_mid_print = r.u8("alarmed_mid_print") != 0;
  d.first_channel = checked_enum<Channel>(
      r.u8("alarm channel"), kChannelCount - 1, "alarm channel");
  d.alarm_window = r.u32("alarm_window");
  d.alarm_tick_ns = r.u64("alarm_tick_ns");
  d.alarm_gcode_line = static_cast<std::size_t>(r.u64("alarm_gcode_line"));
  d.windows_processed = static_cast<std::size_t>(r.u64("windows_processed"));
  d.ring_high_water = static_cast<std::size_t>(r.u64("ring_high_water"));
  d.backpressure_stalls = r.u64("backpressure_stalls");
  d.stream_finished = r.u8("stream_finished") != 0;

  const std::uint8_t n_channels = r.u8("channel verdict count");
  if (n_channels > kChannelCount) {
    throw Error("checkpoint: channel verdict count exceeds channel space");
  }
  d.channels.resize(n_channels);
  for (ChannelVerdict& v : d.channels) {
    v.channel = checked_enum<Channel>(r.u8("verdict channel"),
                                      kChannelCount - 1, "verdict channel");
    v.armed = r.u8("verdict armed") != 0;
    v.tripped = r.u8("verdict tripped") != 0;
    v.trip_window = r.u32("verdict trip window");
    v.windows_compared = r.u64("verdict windows compared");
    v.mismatches = r.u64("verdict mismatches");
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> Checkpoint::to_binary() const {
  std::vector<std::uint8_t> out;
  out.reserve(1024);
  out.push_back('O');
  out.push_back('F');
  out.push_back('C');
  out.push_back('K');
  put_u16(out, kVersion);
  put_u16(out, 0);  // reserved
  put_u64(out, spec_digest);
  put_u32(out, total_rigs);

  put_u32(out, static_cast<std::uint32_t>(references.size()));
  for (const RefEntry& ref : references) encode_reference(out, ref);

  put_u32(out, static_cast<std::uint32_t>(done.size()));
  for (const auto& [index, outcome] : done) {
    put_u32(out, index);
    put_outcome(out, outcome);
  }
  return out;
}

Checkpoint Checkpoint::from_binary(const std::uint8_t* data,
                                   std::size_t size) {
  Rd r{data, size};
  r.need(4, "magic");
  if (std::memcmp(data, "OFCK", 4) != 0) {
    throw Error("checkpoint: bad magic (not an OFCK checkpoint)");
  }
  r.pos = 4;
  const std::uint16_t version = r.u16("version");
  if (version != kVersion) {
    throw Error("checkpoint: unsupported format version " +
                std::to_string(version) + " (this build reads version " +
                std::to_string(kVersion) + ")");
  }
  (void)r.u16("reserved");

  Checkpoint ck;
  ck.spec_digest = r.u64("spec digest");
  ck.total_rigs = r.u32("total rigs");

  const std::uint32_t n_refs = r.u32("reference count");
  // Each reference costs at least 16 bytes on the wire.
  if (n_refs > r.remaining() / 16) {
    throw Error("checkpoint: reference count exceeds input size");
  }
  ck.references.reserve(n_refs);
  for (std::uint32_t i = 0; i < n_refs; ++i) {
    ck.references.push_back(decode_reference(data, size, r.pos));
  }

  const std::uint32_t n_done = r.u32("completed rig count");
  if (n_done > ck.total_rigs) {
    throw Error("checkpoint: more completed rigs than the campaign has");
  }
  ck.done.reserve(n_done);
  for (std::uint32_t i = 0; i < n_done; ++i) {
    const std::uint32_t index = r.u32("rig index");
    if (index >= ck.total_rigs) {
      throw Error("checkpoint: completed rig index out of range");
    }
    ck.done.emplace_back(index, read_outcome(r));
  }
  if (r.remaining() != 0) {
    throw Error("checkpoint: trailing bytes after the last record");
  }
  std::sort(ck.done.begin(), ck.done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return ck;
}

void Checkpoint::save(const std::string& path) const {
  const obs::Span span("checkpoint/save", "fleet");
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::uint8_t> bytes = to_binary();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("checkpoint: cannot open for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw Error("checkpoint: short write: " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw Error("checkpoint: atomic rename failed: " + tmp + " -> " + path +
                ": " + ec.message());
  }
#if OFFRAMPS_OBS_ENABLED
  if (obs::enabled()) {
    static obs::Counter& saves =
        obs::Registry::instance().counter("svc.checkpoint.saves");
    saves.add(1);
    static obs::Histogram& latency = obs::Registry::instance().histogram(
        "svc.checkpoint.save_latency_us", obs::latency_buckets_us());
    latency.observe(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
#endif
  (void)t0;
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("checkpoint: cannot open: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return from_binary(bytes);
}

namespace {

/// FNV-1a 64, fed field by field (doubles by bit pattern, so the digest
/// is exact, not format-dependent).
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t campaign_digest(const std::vector<RigSpec>& specs,
                              const FleetOptions& options) {
  Fnv f;
  f.str("offramps-campaign-v2");
  // Behavior-relevant options.  Workers, checkpoint paths, stop_after and
  // save_captures_dir are excluded: they never change the report bytes.
  f.u64(options.safe_stop ? 1 : 0);
  f.u64(options.use_oracle ? 1 : 0);
  f.u64(options.channels.steps ? 1 : 0);
  f.u64(options.channels.power ? 1 : 0);
  f.u64(options.channels.acoustic ? 1 : 0);
  f.u64(options.channels.vibration ? 1 : 0);
  f.u64(options.reference_seed);
  f.u64(options.detector.ring_capacity);
  f.u64(static_cast<std::uint64_t>(options.pump.period));
  f.u64(options.pump.windows_per_slot);
  f.u64(options.supervisor.max_attempts);
  f.u64(options.supervisor.degrade_channels ? 1 : 0);
  f.f64(options.supervisor.watchdog_period_s);
  f.f64(options.supervisor.stall_timeout_s);
  f.f64(options.supervisor.first_data_timeout_s);
  const host::SliceProfile& p = options.profile;
  f.f64(p.layer_height_mm);
  f.f64(p.line_width_mm);
  f.f64(p.filament_diameter_mm);
  f.f64(p.first_layer_speed_mm_s);
  f.f64(p.perimeter_speed_mm_s);
  f.f64(p.infill_speed_mm_s);
  f.f64(p.travel_speed_mm_s);
  f.f64(p.z_speed_mm_s);
  f.f64(p.retract_mm);
  f.f64(p.retract_speed_mm_s);
  f.f64(p.hotend_temp_c);
  f.f64(p.bed_temp_c);
  f.f64(p.fan_duty);
  f.u64(p.fan_from_layer);
  f.u64(static_cast<std::uint64_t>(p.perimeter_count));
  f.f64(p.infill_spacing_mm);
  f.f64(p.prime_e_mm);
  f.u64(static_cast<std::uint64_t>(p.skirt_loops));
  f.f64(p.skirt_gap_mm);

  f.u64(specs.size());
  for (const RigSpec& s : specs) {
    f.str(s.name);
    f.u64(s.seed);
    f.f64(s.cube_mm);
    f.f64(s.height_mm);
    f.str(s.sabotage.to_string());
    f.str(s.chaos.to_string());
  }
  return f.h;
}

}  // namespace offramps::svc
