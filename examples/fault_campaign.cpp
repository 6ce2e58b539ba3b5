// Fault campaign: sweep the declarative fault injector across every fault
// family (stuck/glitch digital nets, drifting thermistor, corrupted UART
// frames, scheduler timing jitter) at three intensities each, print one
// small part per cell, and classify every run as clean / fail-safe /
// silent-corruption / false-alarm against a clean reference.
//
//   ./fault_campaign [report.json] [--jobs N] [--metrics]
//                    [--trace-out FILE]
//
// Writes the machine-readable JSON report to the given path (default
// fault_campaign.json in the working directory) and prints a summary
// table.  The schema is documented in EXPERIMENTS.md, "Fault campaigns".
// Cells run in parallel across N workers (--jobs, else OFFRAMPS_JOBS,
// else hardware concurrency); the report is identical for any N.
//
// Exit codes (the tool-suite contract shared with offramps_lint and
// offramps_fleetd): 0 = campaign ran and self-checks passed,
// 1 = self-check findings or report write failure, 2 = usage error.
#include <cstdio>
#include <string>

#include "core/cli.hpp"
#include "host/fault_campaign.hpp"
#include "host/parallel_runner.hpp"
#include "host/slicer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

constexpr const char* kUsage =
    "usage: fault_campaign [report.json] [--jobs N] [--metrics]\n"
    "                      [--trace-out FILE]\n"
    "  report.json      output path (default: fault_campaign.json)\n"
    "  --jobs N, -j N   worker threads (default: OFFRAMPS_JOBS or cores)\n"
    "  --metrics        print the obs:: metrics registry after the run\n"
    "  --trace-out FILE write a chrome://tracing trace of the sweep\n"
    "  --help, -h       this text\n"
    "exit: 0 clean, 1 any alarm/lost/finding (here: self-check findings\n"
    "or write failure), 2 usage or spec error, 75 partial campaign\n"
    "(never emitted here) - the same contract as offramps_fleetd and\n"
    "offramps_lint\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace offramps;

  std::string out_path = "fault_campaign.json";
  std::size_t jobs = 0;  // 0: OFFRAMPS_JOBS, else the cores
  bool help = false;
  bool metrics = false;
  std::string trace_path;
  core::cli::Parser args;
  args.flag("--help", help).alias("-h")
      .count("--jobs", jobs, 1, 1'000'000).alias("-j")
      .flag("--metrics", metrics)
      .text("--trace-out", trace_path)
      .text("report.json", out_path);
  args.parse_or_exit(argc, argv, 1, kUsage);
  if (help) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  if (metrics) obs::set_enabled(true);
  if (!trace_path.empty()) obs::TraceSession::start();

  // A small sliced cube keeps each of the sweep's full prints quick while
  // still exercising homing, heating, and multi-layer motion.
  host::SliceProfile profile;
  host::CubeSpec cube{.size_x_mm = 10.0,
                      .size_y_mm = 10.0,
                      .height_mm = 2.0,
                      .center_x_mm = 110.0,
                      .center_y_mm = 100.0};
  const gcode::Program program = host::slice_cube(cube, profile);

  host::FaultCampaign campaign(program, "cube-10x10x2");
  const auto sweep = host::FaultCampaign::default_sweep();
  host::ParallelRunner pool(jobs);
  std::printf("running %zu-cell fault sweep (plus 1 clean reference) "
              "on %zu worker(s)...\n",
              sweep.size(), pool.workers());

  const host::CampaignReport report = campaign.run(sweep, pool);

  if (!trace_path.empty()) {
    obs::TraceSession::stop();
    if (!obs::TraceSession::save(trace_path)) {
      std::fprintf(stderr, "cannot write trace '%s'\n", trace_path.c_str());
      return 1;
    }
    std::printf("trace written to %s (%zu events)\n", trace_path.c_str(),
                obs::TraceSession::event_count());
  }
  if (metrics) {
    std::fputs(obs::Registry::instance().to_json().c_str(), stdout);
    std::fputc('\n', stdout);
  }

  std::printf("\n%-15s %-18s %9s %-18s %6s %6s %5s\n", "fault", "target",
              "intensity", "outcome", "dev%", "txns", "crc-");
  for (const auto& cell : report.cells) {
    std::printf("%-15s %-18s %9g %-18s %6.1f %6zu %5llu\n",
                sim::fault_kind_name(cell.fault.kind),
                cell.fault.target.c_str(), cell.fault.intensity,
                cell_outcome_name(cell.outcome), cell.deviation * 100.0,
                cell.capture_transactions,
                static_cast<unsigned long long>(cell.crc_rejected));
  }
  std::printf("\nsummary: %zu clean, %zu fail-safe, %zu silent-corruption, "
              "%zu false-alarm (clean reference: %zu transactions)\n",
              report.count(host::CellOutcome::kClean),
              report.count(host::CellOutcome::kFailSafe),
              report.count(host::CellOutcome::kSilentCorruption),
              report.count(host::CellOutcome::kFalseAlarm),
              report.clean_transactions);

  try {
    core::cli::write_text(out_path, report.to_json(), "fault_campaign");
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("report written to %s\n", out_path.c_str());

  // Self-check mirroring the acceptance criteria: zero-intensity cells
  // must classify clean (no false alarms), and UART bit-flip cells must
  // survive via CRC framing with the capture matching the clean run.
  int rc = 0;
  for (const auto& cell : report.cells) {
    if (cell.fault.intensity == 0.0 &&
        cell.outcome != host::CellOutcome::kClean) {
      std::fprintf(stderr, "FAIL: zero-intensity cell %s not clean\n",
                   cell.fault.describe().c_str());
      rc = 1;
    }
    if (cell.fault.kind == sim::FaultKind::kUartBitFlip &&
        cell.capture_transactions != report.clean_transactions) {
      std::fprintf(stderr,
                   "FAIL: uart cell %s capture %zu != clean %zu\n",
                   cell.fault.describe().c_str(), cell.capture_transactions,
                   report.clean_transactions);
      rc = 1;
    }
  }
  return rc;
}
