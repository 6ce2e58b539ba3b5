#include "svc/ref_cache.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/error.hpp"

namespace offramps::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::string_view kMagic = "OFRF";

/// The three side-channel traces in body order.
template <typename Entry>
auto traces(Entry& entry) {
  return std::array{&entry.golden_power, &entry.golden_acoustic,
                    &entry.golden_vibration};
}

/// obs counters, registered eagerly at cache construction when metrics
/// are on so a fully-warm campaign still exports "svc.cache.miss": 0.
struct CacheCounters {
  obs::Counter* hit = nullptr;
  obs::Counter* miss = nullptr;
  obs::Counter* evict = nullptr;
  obs::Counter* rejected = nullptr;
};

CacheCounters& cache_counters() {
  static CacheCounters c{&obs::Registry::instance().counter("svc.cache.hit"),
                         &obs::Registry::instance().counter("svc.cache.miss"),
                         &obs::Registry::instance().counter("svc.cache.evict"),
                         &obs::Registry::instance().counter(
                             "svc.cache.rejected")};
  return c;
}

}  // namespace

void hash_profile(core::Fnv1a& f, const host::SliceProfile& p) {
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
}

std::uint64_t reference_digest(double cube_mm, double height_mm,
                               const host::SliceProfile& p,
                               std::uint64_t reference_seed,
                               const ChannelSet& channels) {
  core::Fnv1a f;
  f.str("offramps-reference-v2");
  f.f64(cube_mm);
  f.f64(height_mm);
  f.u64(reference_seed);
  // Each probe flag separately: a golden computed without the acoustic
  // probe has no master signature, so it must not be addressable by a
  // campaign that needs one.  (`steps` needs no probe and is excluded.)
  f.u64(channels.power ? 1 : 0);
  f.u64(channels.acoustic ? 1 : 0);
  f.u64(channels.vibration ? 1 : 0);
  hash_profile(f, p);
  return f.value();
}

RefCache::RefCache(RefCacheOptions options) : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw Error("RefCache: cache directory must not be empty");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec || !fs::is_directory(options_.dir)) {
    throw Error("RefCache: cannot create cache directory " + options_.dir);
  }
  if (obs::enabled()) cache_counters();  // eager registration
}

std::string RefCache::path_for(std::uint64_t key) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.ref",
                static_cast<unsigned long long>(key));
  return options_.dir + "/" + name;
}

void encode_reference(std::vector<std::uint8_t>& out,
                      const RefEntry& entry) {
  const auto blob = entry.golden.to_binary();
  core::ByteWriter w(out);
  w.u64(blob.size());
  w.bytes(blob.data(), blob.size());
  for (const plant::SideTrace* trace : traces(entry)) {
    w.u64(trace->size());
    for (const plant::SideSample& s : *trace) {
      w.f64(s.t_s);
      w.f64(s.value);
    }
  }
}

RefEntry decode_reference(core::ByteReader& r) {
  RefEntry entry;
  const std::size_t blob_len = r.count(1, "capture blob length");
  entry.golden = core::Capture::from_binary(r.bytes(blob_len), blob_len);
  for (plant::SideTrace* trace : traces(entry)) {
    const std::size_t n = r.count(16, "sample count");
    trace->reserve(n);
    double prev_t_s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      plant::SideSample s;
      s.t_s = r.f64();
      s.value = r.f64();
      // The negated test also rejects NaN.
      if (!(s.t_s >= prev_t_s && s.t_s <= kMaxTraceSpanS)) {
        r.fail("bad sample time " + std::to_string(s.t_s));
      }
      prev_t_s = s.t_s;
      trace->push_back(s);
    }
  }
  return entry;
}

std::vector<std::uint8_t> RefCache::encode_entry(std::uint64_t key,
                                                 const RefEntry& entry) {
  std::vector<std::uint8_t> out;
  core::ByteWriter w(out);
  w.bytes(kMagic.data(), kMagic.size());
  w.u16(kVersion);
  w.u16(0);  // reserved
  w.u64(key);
  encode_reference(out, entry);
  return out;
}

RefEntry RefCache::decode_entry(const std::uint8_t* data, std::size_t size,
                                std::uint64_t expect_key) {
  core::ByteReader r(data, size, "RefCache");
  r.magic(kMagic, "not a reference cache entry");
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    r.fail("unsupported entry version " + std::to_string(version));
  }
  (void)r.u16();  // reserved
  if (r.u64() != expect_key) r.fail("entry key does not match its address");
  RefEntry entry = decode_reference(r);
  r.finish();
  return entry;
}

std::optional<RefEntry> RefCache::get(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string path = path_for(key);
  std::vector<std::uint8_t> bytes;
  try {
    bytes = core::read_file(path, "RefCache");
  } catch (const Error&) {
    // No entry (or an unreadable one): a plain miss.
    ++stats_.misses;
    if (obs::enabled()) cache_counters().miss->add(1);
    return std::nullopt;
  }
  try {
    RefEntry entry = decode_entry(bytes.data(), bytes.size(), key);
    // Refresh recency so the LRU budget sees this entry as live.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    ++stats_.hits;
    if (obs::enabled()) cache_counters().hit->add(1);
    return entry;
  } catch (const Error&) {
    // Truncated / corrupt / skewed: delete so it cannot poison later
    // campaigns, report a miss, let the caller recompute.
    std::error_code ec;
    fs::remove(path, ec);
    ++stats_.rejected;
    ++stats_.misses;
    if (obs::enabled()) {
      cache_counters().rejected->add(1);
      cache_counters().miss->add(1);
    }
    return std::nullopt;
  }
}

void RefCache::put(std::uint64_t key, const RefEntry& entry) {
  const std::lock_guard<std::mutex> lock(mu_);
  core::write_file_atomic(path_for(key), encode_entry(key, entry),
                          "RefCache");
  enforce_budget_locked();
}

void RefCache::enforce_budget_locked() {
  if (options_.max_bytes == 0) return;
  struct File {
    fs::file_time_type mtime;
    std::string name;
    std::string path;
    std::uint64_t size = 0;
  };
  std::vector<File> files;
  std::uint64_t total = 0;
  std::error_code ec;
  for (fs::directory_iterator it(options_.dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    if (it->path().extension() != ".ref") continue;
    File f;
    f.path = it->path().string();
    f.name = it->path().filename().string();
    f.mtime = fs::last_write_time(it->path(), ec);
    f.size = it->file_size(ec);
    total += f.size;
    files.push_back(std::move(f));
  }
  if (total <= options_.max_bytes) return;
  // Oldest first; filename tiebreak keeps eviction deterministic when a
  // filesystem's mtime granularity collapses timestamps.
  std::sort(files.begin(), files.end(), [](const File& a, const File& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  // Never evict the newest entry (the one a put just wrote), even when
  // the budget is smaller than a single record.
  for (std::size_t i = 0; i + 1 < files.size(); ++i) {
    if (total <= options_.max_bytes) break;
    std::error_code rm_ec;
    if (fs::remove(files[i].path, rm_ec)) {
      total -= files[i].size;
      ++stats_.evictions;
      if (obs::enabled()) cache_counters().evict->add(1);
    }
  }
}

RefCache::Stats RefCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace offramps::svc
