// OFFRAMPS end-to-end benchmark program.
//
//   perfbench --workload campaign|sweep|replay --seed N --seconds S
//             --trace 0|1 [--tiny] [--work DIR] [--out DIR]
//             [--commit ID] [--source-digest HEX]
//
// Sets the workload up (several times, reporting the median), then runs
// closed-loop passes for S seconds: a pass starts only when the previous
// one is done, and within a pass each worker takes its next rig only when
// its previous rig is done.  --trace 0 prints the end-to-end metrics;
// --trace 1 splits the time into untraced and traced passes (obs metrics
// and an obs::TraceSession on) and then runs the per-layer probes.  The
// last stdout line is one JSON object: correct, attempted, failed,
// metrics.  Exit 0 when every correctness gate passed, 1 when one
// failed, 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/strict_parse.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"

namespace perfbench {
namespace {

namespace svc = offramps::svc;

/// Set-up repetitions of an untraced run (median reported): at least
/// kSetupReps, more while they add up to under kSetupSeconds.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kSetupMaxReps = 25;
constexpr double kSetupSeconds = 2.0;
/// Passes a timed run makes at least.
constexpr std::size_t kMinPasses = 10;

struct Args {
  Kind kind = Kind::kCampaign;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string work = ".bench_build/work";
  std::string out = ".bench_build/results";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Prints `why` and the usage line; returns false for parse_args.
bool usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload campaign|sweep|replay --seed N "
               "--seconds S --trace 0|1 [--tiny] [--work DIR] [--out DIR] "
               "[--commit ID] [--source-digest HEX]\n",
               why.c_str());
  return false;
}

/// Parses argv strictly: anything it does not understand is a usage error.
bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    static const std::set<std::string> kValued{
        "--workload", "--seed", "--seconds", "--trace",
        "--work",     "--out",  "--commit",  "--source-digest"};
    if (kValued.count(flag) == 0) return usage("unknown flag " + flag);
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      if (!parse_kind(v, a.kind)) return usage("unknown workload " + v);
      have_workload = true;
    } else if (flag == "--seed") {
      const auto n = offramps::core::parse_long(v);
      if (!n || *n < 0) return usage("--seed takes a whole number");
      a.seed = static_cast<std::uint64_t>(*n);
    } else if (flag == "--seconds") {
      const auto n = offramps::core::parse_long(v);
      if (!n || *n < 1) return usage("--seconds takes a positive integer");
      a.seconds = static_cast<double>(*n);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work") {
      a.work = v;
    } else if (flag == "--out") {
      a.out = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      a.source_digest = v;
    }
  }
  return have_workload || usage("--workload is required");
}

/// What a run of closed-loop passes measured.
struct Loop {
  /// Fastest host time of each rig (or session) over the passes, in ms.
  std::map<std::string, double> rig_fastest_ms;
  PassStats stats;
  double sim_s_per_pass = 0.0;
  std::size_t rigs_per_pass = 0;
  svc::FleetReport last;
};

bool is_phase(const std::string& name) {
  return name.rfind("rig/", 0) == 0 || name.rfind("session/", 0) == 0;
}

/// Appends the "rig/*" phases of `report`.
void rig_phases(const svc::FleetReport& report,
                std::vector<svc::PhaseTiming>& out) {
  for (const svc::PhaseTiming& t : report.timings) {
    if (t.name.rfind("rig/", 0) == 0) out.push_back(t);
  }
}

Loop run_passes(Workload& w, double seconds, std::size_t min_passes,
                Gate& gate, Ledger* ledger) {
  Loop loop;
  const auto start = Clock::now();
  while (loop.stats.wall_s.size() < min_passes ||
         seconds_since(start) < seconds) {
    const auto t0 = Clock::now();
    {
      std::optional<Ledger::Scope> span;
      if (ledger != nullptr) span.emplace(*ledger, "pass");
      loop.last = w.pass(gate);
    }
    loop.stats.wall_s.push_back(seconds_since(t0));
    double phase_sum = 0.0;
    for (const svc::PhaseTiming& t : loop.last.timings) {
      if (!is_phase(t.name)) continue;
      const auto [it, fresh] =
          loop.rig_fastest_ms.try_emplace(t.name, t.seconds * 1e3);
      if (!fresh) it->second = std::min(it->second, t.seconds * 1e3);
      phase_sum += t.seconds;
    }
    loop.stats.phase_sum_s.push_back(phase_sum);
    rig_phases(loop.last, loop.stats.rig_phases);
  }
  loop.rigs_per_pass = loop.last.rigs.size();
  for (const svc::RigOutcome& r : loop.last.rigs) {
    loop.sim_s_per_pass += r.sim_seconds;
  }
  return loop;
}

/// Each rig's (or session's) fastest host time over the passes, in ms.
std::vector<double> fastest_rig_ms(const Loop& loop) {
  std::vector<double> out;
  for (const auto& [name, ms] : loop.rig_fastest_ms) out.push_back(ms);
  return out;
}

/// Mean first-alarm window over the sabotaged rigs (0 when none).
double alarm_latency(const svc::FleetReport& report) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const svc::RigOutcome& r : report.rigs) {
    if (r.spec.sabotage.kind == svc::Sabotage::Kind::kNone) continue;
    sum += r.detector.alarm_window;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string metrics_json(const Metrics& m, bool comparable) {
  std::string out = "{";
  for (std::size_t i = 0; i < m.items().size(); ++i) {
    const Metric& x = m.items()[i];
    out += (i ? ", \"" : "\"") + json_escape(x.name) + "\": {\"value\": " +
           json_value(x, comparable) + ", \"unit\": \"" + json_escape(x.unit) +
           "\"}";
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
    out += buf;
  }
  return out + "]";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

int run(const Args& a) {
  const Provenance prov = provenance(a.commit, a.source_digest);
  const std::string tag = std::string(kind_name(a.kind)) + "-seed" +
                          std::to_string(a.seed) + (a.tiny ? "-tiny" : "");
  std::printf("perfbench %s: seed %llu, %.0f s, trace %d%s\n",
              kind_name(a.kind), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.tiny ? ", tiny" : "");
  std::printf("build %s, optimized %s, sanitized %s, obs compiled %s, "
              "nproc %u, commit %s, sources %s\n",
              prov.build_type.c_str(), prov.optimized ? "yes" : "no",
              prov.sanitized ? "yes" : "no", prov.obs_compiled ? "yes" : "no",
              prov.nproc, prov.commit.c_str(), prov.source_digest.c_str());
  if (!prov.comparable()) {
    std::printf("timings of this build are NOT COMPARABLE (sanitized or "
                "unoptimized); only counts and correctness are reported\n");
  }
  std::fflush(stdout);

  const std::string work = a.work + "/" + tag + "-trace" +
                           std::to_string(a.trace ? 1 : 0);
  std::filesystem::create_directories(a.out);
  Workload w(a.kind, a.seed, a.tiny, work);
  Gate gate;
  Ledger ledger;
  Metrics metrics;

  // ---- set-up, repeated; the last one's state feeds the passes.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  const bool once = a.trace || a.tiny;
  while (setup_s.empty() ||
         (!once && setup_s.size() < kSetupMaxReps &&
          (setup_s.size() < kSetupReps || setup_total < kSetupSeconds))) {
    const Ledger::Scope span(ledger, "setup");
    const auto t0 = Clock::now();
    w.setup(gate);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  }

  const std::size_t min_passes = a.tiny ? 1 : kMinPasses;
  int rc = 0;
  std::vector<double> pass_wall_s;  // untraced passes, for the results file
  if (!a.trace) {
    const Loop loop = run_passes(w, a.seconds, min_passes, gate, nullptr);
    pass_wall_s = loop.stats.wall_s;
    // The mean pass, i.e. the run's timed seconds over its passes.  On a
    // shared host, contention comes in spells that slow every rig up to
    // ~1.7x for seconds to a minute; the mean moves in proportion to the
    // share of the run they cover, while a quantile jumps between the fast
    // and the slow mode (README.md, "Stability").
    double total_s = 0.0;
    for (const double s : loop.stats.wall_s) total_s += s;
    const double wall =
        total_s / static_cast<double>(loop.stats.wall_s.size());
    metrics.time("setup_s", median(setup_s), "s");
    metrics.time("wall_s", wall, "s");
    metrics.time("rigs_per_s", static_cast<double>(loop.rigs_per_pass) / wall,
                 "1/s");
    metrics.time("sim_rtf", loop.sim_s_per_pass / wall, "x");
    metrics.time("peak_rss_mb", peak_rss_mb(), "MB");
    print_table("end-to-end (" + std::to_string(loop.stats.wall_s.size()) +
                    " passes; wall_s is their mean)",
                metrics, prov.comparable());
    // Printed, not bounded: per-rig percentiles spread too far between
    // runs on a shared host, and the other two can be 0.
    const std::vector<double> rig_ms = fastest_rig_ms(loop);
    Metrics extra;
    extra.time("rig_ms_p50", percentile(rig_ms, 50.0), "ms");
    extra.time("rig_ms_p90", percentile(rig_ms, 90.0), "ms");
    extra.count("error_rate",
                gate.attempted ? static_cast<double>(gate.failed) /
                                     static_cast<double>(gate.attempted)
                               : 0.0,
                "fraction");
    extra.count("alarm_latency_windows", alarm_latency(loop.last),
                "windows (simulated)");
    print_table("also printed (rig_ms_* are percentiles over " +
                    std::to_string(rig_ms.size()) +
                    " rigs, each its fastest pass)",
                extra, prov.comparable());
  } else {
    // Untraced half, then the traced half, then the layer probes.
    const double half = a.seconds / 2.0;
    const std::size_t half_min = std::max<std::size_t>(1, min_passes / 2);
    const Loop plain = run_passes(w, half, half_min, gate, nullptr);
    pass_wall_s = plain.stats.wall_s;

    auto& reg = offramps::obs::Registry::instance();
    reg.reset();
    offramps::obs::set_enabled(true);
    offramps::obs::TraceSession::start();
    const Loop traced = run_passes(w, half, half_min, gate, &ledger);
    offramps::obs::set_enabled(false);
    const double hits =
        static_cast<double>(reg.counter("svc.cache.hit").value());
    const double misses =
        static_cast<double>(reg.counter("svc.cache.miss").value());
    const std::uint64_t ref_sims = reg.counter("svc.ref.simulations").value();
    if (a.kind != Kind::kCampaign) {
      gate.judge(ref_sims == 0, "warm passes ran " +
                                    std::to_string(ref_sims) +
                                    " reference simulations");
    }

    PassStats stats = plain.stats;
    if (a.kind == Kind::kReplay) {
      stats.rig_phases.clear();
      rig_phases(w.recording(), stats.rig_phases);
    }
    measure_layers(w, plain.last, stats, a.tiny, ledger, metrics, gate);
    offramps::obs::TraceSession::stop();

    const std::vector<double> rig_ms = fastest_rig_ms(plain);
    metrics.time("rig_ms_p50", percentile(rig_ms, 50.0), "ms");
    metrics.time("rig_ms_p90", percentile(rig_ms, 90.0), "ms");
    metrics.count("svc.cache.hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0,
                  "fraction");
    metrics.count("detect.alarm_latency_windows", alarm_latency(plain.last),
                  "windows");
    const double plain_wall = median(plain.stats.wall_s);
    const double traced_wall = median(traced.stats.wall_s);
    metrics.time("obs.trace_overhead_pct",
                 (traced_wall - plain_wall) / plain_wall * 100.0, "%");
    print_table("per-layer (" + std::to_string(plain.stats.wall_s.size()) +
                    " untraced + " +
                    std::to_string(traced.stats.wall_s.size()) +
                    " traced passes)",
                metrics, prov.comparable());

    std::printf("\nbenchmark spans (self time = total - children)\n");
    std::printf("  %-24s %8s %12s %12s\n", "span", "calls", "total_s",
                "self_s");
    for (const Ledger::Row& r : ledger.rows()) {
      std::printf("  %-24s %8llu %12.6f %12.6f\n", r.name.c_str(),
                  static_cast<unsigned long long>(r.calls), r.total_s,
                  r.self_s);
    }
    const std::string trace_path = a.out + "/trace-" + tag + ".json";
    if (offramps::obs::TraceSession::save(trace_path)) {
      std::printf("span file: %s (chrome://tracing)\n", trace_path.c_str());
    }
  }

  if (gate.failed > 0) {
    std::printf("\nCORRECTNESS GATE FAILED: %llu of %llu (first: %s)\n",
                static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted),
                gate.first_cause.c_str());
    rc = 1;
  }

  // Results file: provenance, every metric, counts, spans.
  const bool comparable = prov.comparable();
  std::string results = "{\n  \"workload\": \"" +
                        std::string(kind_name(a.kind)) + "\",\n  \"seed\": " +
                        std::to_string(a.seed) + ",\n  \"trace\": " +
                        (a.trace ? "1" : "0") + ",\n  \"tiny\": " +
                        (a.tiny ? "true" : "false") + ",\n";
  results += "  \"provenance\": {\"build_type\": \"" +
             json_escape(prov.build_type) + "\", \"optimized\": " +
             (prov.optimized ? "true" : "false") + ", \"sanitized\": " +
             (prov.sanitized ? "true" : "false") + ", \"obs_compiled\": " +
             (prov.obs_compiled ? "true" : "false") + ", \"nproc\": " +
             std::to_string(prov.nproc) + ", \"commit\": \"" +
             json_escape(prov.commit) + "\", \"source_digest\": \"" +
             json_escape(prov.source_digest) + "\", \"comparable\": " +
             (comparable ? "true" : "false") + "},\n";
  results += "  \"attempted\": " + std::to_string(gate.attempted) +
             ",\n  \"failed\": " + std::to_string(gate.failed) +
             ",\n  \"first_failure\": \"" + json_escape(gate.first_cause) +
             "\",\n  \"setup_s\": " + json_list(setup_s) +
             ",\n  \"pass_wall_s\": " + json_list(pass_wall_s) +
             ",\n  \"metrics\": " + metrics_json(metrics, comparable) +
             ",\n  \"counts\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    if (!m.exact) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    results += (first ? "\"" : ", \"") + json_escape(m.name) + "\": " + buf;
    first = false;
  }
  results += "}\n}\n";
  write_file(a.out + "/" + tag + "-trace" + std::to_string(a.trace ? 1 : 0) +
                 ".json",
             results);
  write_file(a.out + "/report-" + tag + ".json", w.expected());

  std::filesystem::remove_all(work);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              gate.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed),
              metrics_json(metrics, comparable).c_str());
  return rc;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) return 2;
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
