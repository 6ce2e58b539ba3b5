#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.hpp"

namespace offramps::obs {

namespace detail {
std::atomic<bool> g_enabled{false};

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kCounterShards;
  return idx;
}
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_seq_cst);
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
}

void Histogram::observe(double x) {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), x);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lowered;
  // a CAS loop is portable and this path only runs while enabled.
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& latency_buckets_us() {
  static const std::vector<double> kBuckets{
      1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 10000, 100000};
  return kBuckets;
}

// std::map keeps names sorted, which is what makes to_json()
// deterministic; unique_ptr keeps handles stable across rehash-free
// inserts.
struct Registry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Impl& Registry::impl() const {
  static Impl impl;
  return impl;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  auto& slot = im.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

std::string Registry::to_json() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : im.counters) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(c->value());
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : im.gauges) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, name);
    out += ": {\"value\": " + std::to_string(g->value()) +
           ", \"max\": " + std::to_string(g->max()) + "}";
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : im.histograms) {
    out += first ? "" : ", ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(h->count()) +
           ", \"sum\": " + format_general(h->sum()) + ", \"bounds\": [";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out += i == 0 ? "" : ", ";
      out += format_general(bounds[i]);
    }
    out += "], \"counts\": [";
    const auto counts = h->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out += i == 0 ? "" : ", ";
      out += std::to_string(counts[i]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (auto& kv : im.counters) kv.second->reset();
  for (auto& kv : im.gauges) kv.second->reset();
  for (auto& kv : im.histograms) kv.second->reset();
}

}  // namespace offramps::obs
