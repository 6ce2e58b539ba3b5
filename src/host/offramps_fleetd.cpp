// offramps_fleetd: fleet orchestration daemon.
//
// Batch mode runs a fleet of simulated printer rigs - each behind its
// own OFFRAMPS board - with per-rig online streaming detection
// (svc::Fleet), and emits a deterministic fleet report.  The report is
// byte-identical at any --jobs value, so CI can diff it.
//
//   offramps_fleetd --demo 16 --sabotage 4      built-in demo fleet
//   offramps_fleetd fleet.json                  fleet spec file
//   offramps_fleetd --json --demo 8             JSON report on stdout
//   offramps_fleetd --out report.json ...       JSON report to a file
//   offramps_fleetd --chaos 3=crash:1 ...       chaos-campaign faults
//   offramps_fleetd --checkpoint ck.bin ...     checkpoint the campaign
//   offramps_fleetd --resume ck.bin ...         continue a killed campaign
//   offramps_fleetd --cache refs/ ...           golden-reference cache
//
// Service mode turns the process into a long-lived daemon: rigs are
// clients that stream recorded core::wire sessions at it and join or
// leave mid-campaign; SIGTERM drains in-flight rigs and emits the same
// deterministic report.
//
//   offramps_fleetd --serve --listen fleet.sock daemon on a Unix socket
//   offramps_fleetd --serve                     sessions from stdin
//   offramps_fleetd --join fleet.sock *.ofs     stream sessions at it
//   offramps_fleetd --replay captures/          offline verdict replay
//
// Exit codes (contract shared by offramps_lint and fault_campaign):
// 0 = clean, 1 = any detector alarm / lost rig / finding, 2 = usage or
// spec error, 75 = partial campaign (resume from the checkpoint).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hpp"
#include "host/chaos.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/daemon.hpp"
#include "svc/fleet.hpp"

namespace {

constexpr const char* kUsage =
    "usage: offramps_fleetd [options] [SPEC.json]\n"
    "  SPEC.json        fleet spec file ('-' = stdin); see --spec-help\n"
    "  --demo N         built-in demo fleet of N rigs (no spec needed)\n"
    "  --sabotage K     implant Flaw3D Trojans in K of the demo rigs\n"
    "  --jobs N, -j N   worker threads (default: OFFRAMPS_JOBS or cores;\n"
    "                   the report is byte-identical at any value)\n"
    "  --json           print the JSON fleet report on stdout\n"
    "  --out FILE       also write the JSON fleet report to FILE\n"
    "  --captures DIR   persist golden + observed captures (.bin) and\n"
    "                   replayable session streams (.ofs) in DIR (the dir\n"
    "                   must exist or be creatable, and be writable -\n"
    "                   checked up front, exit 2 otherwise)\n"
    "  --cache DIR      content-addressed golden-reference cache: serve\n"
    "                   references from DIR when present, else simulate\n"
    "                   once and persist (atomic rename; safe to share)\n"
    "  --cache-max-mb N LRU size bound for --cache in MiB (0 = unbounded)\n"
    "  --channels LIST  detection channels to arm, a comma-separated\n"
    "                   subset of steps,power,acoustic,vibration (or\n"
    "                   'all', the default); probes are only simulated\n"
    "                   for enabled channels\n"
    "  --serve          service mode: accept rig sessions and judge them\n"
    "                   live; SIGTERM drains and prints the report\n"
    "  --listen PATH    --serve on a Unix-domain socket at PATH instead\n"
    "                   of reading concatenated streams from stdin\n"
    "  --join SOCK      stream the positional .ofs session files into a\n"
    "                   serving daemon at SOCK and print each verdict\n"
    "  --replay DIR     re-run detector verdicts over the .ofs session\n"
    "                   corpus in DIR, without the simulator (--chaos\n"
    "                   I=SPEC here drills corpus file index I, where\n"
    "                   SPEC is disconnect|framecorrupt[:attempts])\n"
    "  --no-safe-stop   observe alarms without halting the rig\n"
    "  --chaos I=SPEC   inject a service-layer fault into rig I, where\n"
    "                   SPEC is crash|stall|corrupt|truncate|powerjam|\n"
    "                   ringwedge[:attempts] (repeatable, one per rig;\n"
    "                   a drill the mode does not perform exits 2)\n"
    "  --max-attempts N supervised attempts per rig before quarantine\n"
    "                   (default 3; 1 = no retry)\n"
    "  --backoff-ms N   base retry backoff (deterministic jitter; 0 =\n"
    "                   no sleeping, the default)\n"
    "  --checkpoint F   write a resumable campaign checkpoint to F after\n"
    "                   the reference phase and then per completed rig\n"
    "  --checkpoint-every N\n"
    "                   rigs between checkpoint writes (default 1)\n"
    "  --resume F       load checkpoint F and skip its completed rigs\n"
    "  --stop-after N   stop after N rigs complete this process (exit 75;\n"
    "                   kill-drill for checkpoint/resume testing)\n"
    "  --metrics        collect obs:: metrics and append a \"metrics\"\n"
    "                   section to the JSON report (the deterministic\n"
    "                   part of the report stays byte-identical)\n"
    "  --trace-out FILE write a chrome://tracing / Perfetto trace of the\n"
    "                   run (Trace Event Format JSON) to FILE\n"
    "  --help, -h       this text\n"
    "exit: 0 clean, 1 any alarm/lost/finding, 2 usage or spec error,\n"
    "75 partial campaign (resume from the checkpoint) - the same\n"
    "contract as offramps_lint and fault_campaign\n";

constexpr const char* kSpecHelp =
    "fleet spec (JSON object):\n"
    "  {\n"
    "    \"workers\": 4,            worker threads (--jobs overrides)\n"
    "    \"safe_stop\": true,       halt a rig on mid-print alarm\n"
    "    \"use_oracle\": true,      static-oracle channel\n"
    "    \"use_power\": true,       power-signature channel (legacy;\n"
    "                             \"channels\" wins when both are given)\n"
    "    \"channels\": \"all\",       comma list of steps,power,acoustic,\n"
    "                             vibration (or \"all\")\n"
    "    \"reference_seed\": 42,    jitter seed of the golden prints\n"
    "    \"ring_capacity\": 64,     detector ring-buffer depth\n"
    "    \"max_attempts\": 3,       supervised attempts per rig (>= 1)\n"
    "    \"backoff_ms\": 0,         base retry backoff\n"
    "    \"stall_timeout_s\": 10,   watchdog no-progress limit (sim s) (> 0)\n"
    "    \"checkpoint\": \"\",        campaign checkpoint file\n"
    "    \"checkpoint_every\": 1,  rigs between checkpoint saves (>= 1)\n"
    "    \"save_captures_dir\": \"\",\n"
    "    \"cache\": \"\",             golden-reference cache dir\n"
    "    \"cache_max_mb\": 0,       cache LRU bound (0 = unbounded)\n"
    "    \"rigs\": [\n"
    "      {\"name\": \"a\", \"seed\": 7, \"cube_mm\": 8,\n"
    "       \"height_mm\": 3, \"sabotage\": \"reduce:0.85\"},\n"
    "      {\"seed\": 8, \"sabotage\": \"relocate:10\", \"chaos\": \"crash:1\"},\n"
    "      {\"seed\": 9}\n"
    "    ]\n"
    "  }\n"
    "every key is optional except \"rigs\"; an unknown key, a value of\n"
    "another JSON type than shown (null included) or a key given twice\n"
    "is a spec error (exit 2)\n"
    "cube_mm, height_mm: in (0, 210] (the printer's travel)\n"
    "sabotage: \"clean\" | \"reduce:<factor>\" | \"relocate:<n>\"\n"
    "chaos: \"none\" | \"crash\" | \"stall\" | \"corrupt\" | \"truncate\"\n"
    "       | \"powerjam\" | \"ringwedge\", optionally \":<attempts>\"\n";

/// The flags only a batch campaign reads: --serve and --replay judge
/// sessions and neither checkpoint, supervise nor record.
constexpr const char* kBatchOnly[] = {
    "--checkpoint", "--checkpoint-every", "--resume", "--stop-after",
    "--captures", "--no-safe-stop", "--max-attempts", "--backoff-ms"};

/// Ceiling of every count flag: far past any real campaign.
constexpr std::size_t kMaxCount = 1'000'000;

}  // namespace

int main(int argc, char** argv) {
  bool help = false;
  bool spec_help = false;
  std::size_t demo_n = 0;
  std::size_t sabotage_k = 0;
  std::size_t jobs = 0;
  bool json_stdout = false;
  std::string out_path;
  std::size_t cache_max_mb = 0;
  bool serve = false;
  std::string listen_path;
  std::string join_sock;
  std::string replay_dir;
  // (rig index, chaos spec) pairs, applied after the specs are built
  // (batch mode) or to corpus file indices (--replay).
  std::vector<std::pair<std::size_t, offramps::host::ChaosSpec>> chaos;
  bool metrics = false;
  std::string trace_path;
  // Positional args: the spec file in batch mode, .ofs files for --join.
  std::vector<std::string> positional;
  offramps::svc::FleetOptions options;

  offramps::core::cli::Parser args;
  args.flag("--help", help).alias("-h")
      .flag("--spec-help", spec_help)
      .count("--demo", demo_n, 1, kMaxCount)
      .count("--sabotage", sabotage_k, 0, kMaxCount)
      .count("--jobs", jobs, 1, kMaxCount).alias("-j")
      .flag("--json", json_stdout)
      .text("--out", out_path)
      .text("--captures", options.save_captures_dir)
      .text("--cache", options.cache_dir)
      .count("--cache-max-mb", cache_max_mb, 0, kMaxCount)
      .value("--channels",
             [&options](const std::string& v) {
               options.channels = offramps::svc::ChannelSet::parse(v);
             })
      .flag("--serve", serve)
      .text("--listen", listen_path)
      .text("--join", join_sock)
      .text("--replay", replay_dir)
      .flag("--no-safe-stop", options.safe_stop, false)
      .value("--chaos",
             [&chaos](const std::string& v) {
               const std::size_t eq = v.find('=');
               const auto index = offramps::core::parse_int<std::size_t>(
                   std::string_view(v).substr(0, eq));
               if (eq == std::string::npos || !index) {
                 throw offramps::Error("want I=SPEC");
               }
               for (const auto& order : chaos) {
                 if (order.first == *index) {
                   throw offramps::Error("a second order for index " +
                                         std::to_string(*index));
                 }
               }
               chaos.emplace_back(
                   *index, offramps::host::parse_chaos(v.substr(eq + 1)));
             })
      .repeatable()
      .count("--max-attempts", options.supervisor.max_attempts, 1, kMaxCount)
      .count("--backoff-ms", options.supervisor.backoff_base_ms, 0, kMaxCount)
      .text("--checkpoint", options.checkpoint_path)
      .count("--checkpoint-every", options.checkpoint_every, 1, kMaxCount)
      .text("--resume", options.resume_path)
      .count("--stop-after", options.stop_after, 1, kMaxCount)
      .flag("--metrics", metrics)
      .text("--trace-out", trace_path)
      .list("FILE", positional);
  args.parse_or_exit(argc, argv, 1, kUsage);
  if (help) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (spec_help) {
    std::fputs(kSpecHelp, stdout);
    return 0;
  }
  const bool demo = args.given("--demo");
  options.cache_max_bytes = std::uint64_t{cache_max_mb} * 1024 * 1024;

  // Join client: stream each positional session file at the daemon.
  if (!join_sock.empty()) {
    if (serve || !replay_dir.empty() || demo || positional.empty()) {
      std::fputs("--join SOCK wants only .ofs session files\n", stderr);
      std::fputs(kUsage, stderr);
      return 2;
    }
    int rc = 0;
    for (const std::string& file : positional) {
      rc |= offramps::svc::Daemon::stream_file(join_sock, file);
    }
    return rc;
  }

  if (positional.size() > 1) {
    std::fprintf(stderr, "unexpected argument '%s'\n%s", positional[1].c_str(),
                 kUsage);
    return 2;
  }
  const std::string spec_path = positional.empty() ? "" : positional.front();

  const bool service_mode = serve || !replay_dir.empty();
  if (!listen_path.empty() && !serve) {
    std::fputs("--listen only applies to --serve\n", stderr);
    return 2;
  }
  if (serve && !replay_dir.empty()) {
    std::fputs("give one of --serve or --replay DIR\n", stderr);
    return 2;
  }
  if (service_mode) {
    for (const char* flag : kBatchOnly) {
      if (args.given(flag)) {
        std::fprintf(stderr, "%s does not apply to --serve or --replay\n",
                     flag);
        return 2;
      }
    }
    if (demo || !spec_path.empty()) {
      std::fputs("--serve/--replay take no fleet spec: detector and cache\n"
                 "options come from flags, rigs from their sessions\n",
                 stderr);
      return 2;
    }
    if (serve && !chaos.empty()) {
      std::fputs("--chaos does not apply to --serve\n", stderr);
      return 2;
    }
  } else if (demo == !spec_path.empty()) {
    std::fputs("give exactly one of --demo N, a SPEC.json file, --serve,\n"
               "--replay DIR, or --join SOCK FILES...\n",
               stderr);
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (sabotage_k > 0 && !demo) {
    std::fputs("--sabotage only applies to --demo fleets\n", stderr);
    return 2;
  }

  std::vector<offramps::svc::RigSpec> specs;
  offramps::svc::ReplayOptions replay_options;
  if (!replay_dir.empty()) {
    // --chaos indexes the sorted corpus files here, not rig specs.
    replay_options.chaos = chaos;
  } else if (!serve) {
    try {
      specs = demo ? offramps::svc::Fleet::demo_specs(demo_n, sabotage_k)
                   : offramps::svc::Fleet::specs_from_json(
                         offramps::core::cli::read_text(spec_path,
                                                        "offramps_fleetd"),
                         options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    for (const auto& [index, spec] : chaos) {
      if (index >= specs.size()) {
        std::fprintf(stderr, "--chaos rig index %zu out of range (%zu rigs)\n",
                     index, specs.size());
        return 2;
      }
      specs[index].chaos = spec;
    }
  }

  if (jobs > 0) options.workers = jobs;
  if (!options.save_captures_dir.empty()) {
    // Fail fast, before hours of simulation: the captures dir must exist
    // (or be creatable) AND be writable right now.
    std::error_code ec;
    std::filesystem::create_directories(options.save_captures_dir, ec);
    if (ec || !std::filesystem::is_directory(options.save_captures_dir)) {
      std::fprintf(stderr, "captures dir '%s' does not exist: %s\n",
                   options.save_captures_dir.c_str(),
                   ec ? ec.message().c_str() : "not a directory");
      return 2;
    }
    const std::string probe =
        options.save_captures_dir + "/.fleetd-write-probe";
    {
      std::ofstream touch(probe, std::ios::binary | std::ios::trunc);
      touch << "probe";
      if (!touch) {
        std::fprintf(stderr, "captures dir '%s' is not writable\n",
                     options.save_captures_dir.c_str());
        return 2;
      }
    }
    std::filesystem::remove(probe, ec);
  }

  if (metrics) offramps::obs::set_enabled(true);
  if (!trace_path.empty()) offramps::obs::TraceSession::start();

  offramps::svc::FleetReport report;
  try {
    if (service_mode) {
      // FleetOptions is-a ServiceOptions: the judging fields carry over,
      // the batch-only ones were rejected above.
      if (!replay_dir.empty()) {
        replay_options.service = options;
        report = offramps::svc::replay_corpus(replay_dir, replay_options);
      } else {
        offramps::svc::Daemon daemon({options, listen_path});
        report = daemon.serve();
      }
    } else {
      offramps::svc::Fleet fleet(options);
      report = fleet.run(specs);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet run failed: %s\n", e.what());
    return 2;
  }

  if (!trace_path.empty()) {
    offramps::obs::TraceSession::stop();
    if (!offramps::obs::TraceSession::save(trace_path)) {
      std::fprintf(stderr, "cannot write trace '%s'\n", trace_path.c_str());
      return 2;
    }
    // stderr: --json promises a pure JSON document on stdout.
    std::fprintf(stderr, "[fleetd] wrote trace %s (%zu events)\n",
                 trace_path.c_str(),
                 offramps::obs::TraceSession::event_count());
  }

  // The metrics section rides in a separate top-level member; the
  // deterministic report body stays byte-identical with or without it.
  const std::string report_json =
      metrics ? report.to_json_with_metrics(report.metrics_json())
              : report.to_json();
  if (json_stdout) {
    std::fputs(report_json.c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::fputs(report.to_string().c_str(), stdout);
    if (metrics) {
      std::fputs(report.metrics_json().c_str(), stdout);
      std::fputc('\n', stdout);
    }
  }
  if (!out_path.empty()) {
    try {
      offramps::core::cli::write_text(out_path, report_json + '\n',
                                      "offramps_fleetd");
    } catch (const offramps::Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    // stderr, like the trace notice: stdout carries only the report.
    std::fprintf(stderr, "[fleetd] wrote %s\n", out_path.c_str());
  }
  if (!report.complete) return 75;  // partial campaign: resume to finish
  if (report.alarmed() > 0 ||
      report.count(offramps::svc::RigStatus::kLost) > 0) {
    return 1;
  }
  return 0;
}
