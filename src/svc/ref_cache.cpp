#include "svc/ref_cache.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "sim/error.hpp"

namespace offramps::svc {
namespace {

namespace fs = std::filesystem;

constexpr std::array<char, 4> kMagic{'O', 'F', 'R', 'F'};

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

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xFF));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounded reader over one cache record.
struct Rd {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t& pos;

  void need(std::size_t n) const {
    if (size - pos < n) {
      throw Error("truncated reference record (need " + std::to_string(n) +
                  " bytes, have " + std::to_string(size - pos) + ")");
    }
  }
  [[nodiscard]] std::size_t remaining() const { return size - pos; }

  std::uint16_t u16() {
    need(2);
    const std::uint16_t v =
        static_cast<std::uint16_t>(data[pos] | (data[pos + 1] << 8));
    pos += 2;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | data[pos + i];
    pos += 8;
    return v;
  }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
};

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

std::uint64_t reference_digest(double cube_mm, double height_mm,
                               const host::SliceProfile& p,
                               std::uint64_t reference_seed,
                               const ChannelSet& channels) {
  Fnv f;
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
  return f.h;
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
  put_u64(out, blob.size());
  out.insert(out.end(), blob.begin(), blob.end());
  for (const plant::SideTrace* trace : traces(entry)) {
    put_u64(out, trace->size());
    for (const plant::SideSample& s : *trace) {
      put_f64(out, s.t_s);
      put_f64(out, s.value);
    }
  }
}

RefEntry decode_reference(const std::uint8_t* data, std::size_t size,
                          std::size_t& pos) {
  Rd r{data, size, pos};
  const std::uint64_t blob_len = r.u64();
  r.need(blob_len);
  RefEntry entry;
  entry.golden = core::Capture::from_binary(data + pos,
                                            static_cast<std::size_t>(blob_len));
  pos += static_cast<std::size_t>(blob_len);
  for (plant::SideTrace* trace : traces(entry)) {
    const std::uint64_t n = r.u64();
    // Each sample is 16 bytes; checking the aggregate before reserving
    // keeps a lying count from allocating gigabytes.
    if (n > r.remaining() / 16) {
      throw Error("reference record: sample count exceeds the input");
    }
    trace->reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      plant::SideSample s;
      s.t_s = r.f64();
      s.value = r.f64();
      trace->push_back(s);
    }
  }
  return entry;
}

std::vector<std::uint8_t> RefCache::encode_entry(std::uint64_t key,
                                                 const RefEntry& entry) {
  std::vector<std::uint8_t> out;
  for (const char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  put_u16(out, kVersion);
  put_u16(out, 0);  // reserved
  put_u64(out, key);
  encode_reference(out, entry);
  return out;
}

RefEntry RefCache::decode_entry(const std::uint8_t* data, std::size_t size,
                                std::uint64_t expect_key) {
  std::size_t pos = 0;
  Rd r{data, size, pos};
  r.need(4);
  if (std::memcmp(data, kMagic.data(), 4) != 0) {
    throw Error("RefCache: bad magic (not a reference cache entry)");
  }
  pos = 4;
  const std::uint16_t version = r.u16();
  if (version != kVersion) {
    throw Error("RefCache: unsupported entry version " +
                std::to_string(version));
  }
  r.u16();  // reserved
  const std::uint64_t key = r.u64();
  if (key != expect_key) {
    throw Error("RefCache: entry key does not match its address");
  }
  RefEntry entry = decode_reference(data, size, pos);
  if (r.remaining() != 0) {
    throw Error("RefCache: trailing bytes after entry");
  }
  return entry;
}

std::optional<RefEntry> RefCache::get(std::uint64_t key) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string path = path_for(key);
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      ++stats_.misses;
      if (obs::enabled()) cache_counters().miss->add(1);
      return std::nullopt;
    }
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
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
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp";
  const auto bytes = encode_entry(key, entry);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("RefCache: cannot open " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw Error("RefCache: write failed for " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw Error("RefCache: rename to " + path + " failed: " + ec.message());
  }
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
