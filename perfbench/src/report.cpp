// Statistics, span ledger, provenance and result rendering.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "perfbench.hpp"

// Sanitizer instrumentation slows hot paths unevenly, so its timings say
// nothing about a plain build's.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Ledger::Scope::Scope(Ledger& ledger, std::string name)
    : ledger_(ledger), index_(ledger.spans_.size()), t0_(Clock::now()) {
  ledger_.spans_.push_back({std::move(name), 0.0, 0.0, ledger_.open_});
  ledger_.open_ = index_;
}

Ledger::Scope::~Scope() {
  Span& s = ledger_.spans_[index_];
  s.seconds = seconds_since(t0_);
  if (s.parent != kNone) ledger_.spans_[s.parent].child_seconds += s.seconds;
  ledger_.open_ = s.parent;
  offramps::obs::TraceSession::record(s.name, "perfbench", t0_);
}

std::vector<Ledger::Row> Ledger::rows() const {
  std::vector<Row> out;
  for (const Span& s : spans_) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Row& r) { return r.name == s.name; });
    if (it == out.end()) {
      out.push_back({s.name, 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    ++it->calls;
    it->total_s += s.seconds;
    it->self_s += s.seconds - s.child_seconds;
  }
  return out;
}

Provenance provenance(const std::string& commit,
                      const std::string& source_digest) {
  Provenance p;
  p.build_type = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  p.optimized = true;
#endif
  p.sanitized = PERFBENCH_SANITIZED != 0;
  p.obs_compiled = OFFRAMPS_OBS_ENABLED != 0;
  p.nproc = std::thread::hardware_concurrency();
  p.commit = commit;
  p.source_digest = source_digest;
  return p;
}

void print_table(const std::string& title, const Metrics& m,
                 bool comparable) {
  std::printf("\n%s\n", title.c_str());
  for (const Metric& x : m.items()) {
    if (!x.exact && !comparable) {
      std::printf("  %-32s %16s  %s\n", x.name.c_str(), "not comparable",
                  x.unit.c_str());
    } else {
      std::printf("  %-32s %16.6g  %s\n", x.name.c_str(), x.value,
                  x.unit.c_str());
    }
  }
}

std::string json_value(const Metric& m, bool comparable) {
  if (!m.exact && !comparable) return "\"not comparable\"";
  if (!std::isfinite(m.value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", m.value);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
