#include "obs/trace.hpp"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <vector>

#include "obs/json.hpp"

namespace offramps::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::string cat;
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
};

struct State {
  std::mutex mu;
  std::atomic<bool> active{false};
  std::chrono::steady_clock::time_point t0;
  std::vector<TraceEvent> events;
};

State& state() {
  static State s;
  return s;
}

/// Small dense thread ids (chrome's tid lanes), assigned on first use.
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

void TraceSession::start() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.events.clear();
  s.t0 = std::chrono::steady_clock::now();
  s.active.store(true, std::memory_order_release);
}

void TraceSession::stop() {
  state().active.store(false, std::memory_order_release);
}

bool TraceSession::active() {
  return state().active.load(std::memory_order_relaxed);
}

std::size_t TraceSession::event_count() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.events.size();
}

void TraceSession::record(std::string name, std::string cat,
                          std::chrono::steady_clock::time_point t0) {
  State& s = state();
  if (!s.active.load(std::memory_order_relaxed)) return;
  const auto now = std::chrono::steady_clock::now();
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = std::move(cat);
  ev.tid = current_tid();
  std::lock_guard<std::mutex> lk(s.mu);
  ev.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 t0 - s.t0)
                 .count();
  if (ev.ts_us < 0) ev.ts_us = 0;  // span began before start()
  ev.dur_us =
      std::chrono::duration_cast<std::chrono::microseconds>(now - t0)
          .count();
  s.events.push_back(std::move(ev));
}

std::string TraceSession::to_json() {
  State& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  std::string out =
      "{\"traceEvents\": [\n"
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"offramps\"}}";
  char buf[96];
  for (const TraceEvent& ev : s.events) {
    out += ",\n{\"name\": ";
    append_json_string(out, ev.name);
    out += ", \"cat\": ";
    append_json_string(out, ev.cat);
    std::snprintf(buf, sizeof(buf),
                  ", \"ph\": \"X\", \"ts\": %lld, \"dur\": %lld, "
                  "\"pid\": 1, \"tid\": %u}",
                  static_cast<long long>(ev.ts_us),
                  static_cast<long long>(ev.dur_us), ev.tid);
    out += buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

bool TraceSession::save(const std::string& path) {
  const std::string doc = to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::perror(("obs::TraceSession: " + path).c_str());
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  return ok;
}

}  // namespace offramps::obs
