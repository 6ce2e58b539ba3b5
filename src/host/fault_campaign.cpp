#include "host/fault_campaign.hpp"

#include <cmath>

#include "detect/monitor.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/error.hpp"

namespace offramps::host {

const char* cell_outcome_name(CellOutcome o) {
  switch (o) {
    case CellOutcome::kClean: return "clean";
    case CellOutcome::kFailSafe: return "fail_safe";
    case CellOutcome::kSilentCorruption: return "silent_corruption";
    case CellOutcome::kFalseAlarm: return "false_alarm";
  }
  return "unknown";
}

std::size_t CampaignReport::count(CellOutcome o) const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.outcome == o) ++n;
  }
  return n;
}

std::string CampaignReport::to_json() const {
  std::string out = "{\n  \"program\": ";
  obs::append_json_string(out, program_label);
  out += ",\n  \"clean\": {\"transactions\": ";
  out += std::to_string(clean_transactions);
  out += ", \"filament_mm\": " + obs::format_general(clean_filament_mm) + "},\n";
  out += "  \"summary\": {";
  const CellOutcome kAll[] = {CellOutcome::kClean, CellOutcome::kFailSafe,
                              CellOutcome::kSilentCorruption,
                              CellOutcome::kFalseAlarm};
  bool first = true;
  for (const auto o : kAll) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += cell_outcome_name(o);
    out += "\": " + std::to_string(count(o));
  }
  out += "},\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    out += "    {\"kind\": ";
    obs::append_json_string(out, sim::fault_kind_name(c.fault.kind));
    out += ", \"target\": ";
    obs::append_json_string(out, c.fault.target);
    out += ", \"intensity\": " + obs::format_general(c.fault.intensity);
    out += ", \"window_s\": [" + obs::format_general(sim::to_seconds(c.fault.start)) +
           ", " + obs::format_general(sim::to_seconds(c.fault.stop)) + "]";
    out += ", \"outcome\": ";
    obs::append_json_string(out, cell_outcome_name(c.outcome));
    out += ", \"finished\": ";
    out += c.finished ? "true" : "false";
    out += ", \"killed\": ";
    out += c.killed ? "true" : "false";
    out += ", \"alarmed\": ";
    out += c.alarmed ? "true" : "false";
    out += ", \"kill_reason\": ";
    obs::append_json_string(out, c.kill_reason);
    out += ", \"deviation\": " + obs::format_general(c.deviation);
    out += ", \"transactions\": " + std::to_string(c.capture_transactions);
    out += ", \"crc_rejected\": " + std::to_string(c.crc_rejected);
    out += ", \"fault_events\": " + std::to_string(c.fault_events);
    out += ", \"sim_seconds\": " + obs::format_general(c.sim_seconds);
    out += i + 1 < cells.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

FaultCampaign::FaultCampaign(gcode::Program program, std::string label,
                             FaultCampaignOptions options)
    : program_(std::move(program)),
      label_(std::move(label)),
      options_(std::move(options)) {}

void FaultCampaign::run_reference() {
  if (have_reference_) return;
  have_reference_ = true;
  const obs::Span span("reference/" + label_, "campaign");
  Rig rig(options_.rig);
  reference_ = rig.run(program_);
  if (!reference_.finished) {
    throw Error("FaultCampaign: clean reference print did not finish");
  }
  golden_ = reference_.capture;
}

double FaultCampaign::deviation_from_reference(const RunResult& r) const {
  const auto rel = [](double v, double ref, double floor_) {
    return std::abs(v - ref) / std::max(std::abs(ref), floor_);
  };
  double dev = rel(r.part.total_filament_mm,
                   reference_.part.total_filament_mm, 1.0);
  for (std::size_t i = 0; i < 4; ++i) {
    // The floor keeps tiny absolute wobbles on low-count axes (Z moves a
    // few thousand steps in a whole print) from reading as deviation.
    dev = std::max(dev, rel(static_cast<double>(r.motor_steps[i]),
                            static_cast<double>(reference_.motor_steps[i]),
                            2000.0));
  }
  // A layer shift is geometric corruption even at equal step totals.
  if (r.part.max_layer_shift_mm >
      reference_.part.max_layer_shift_mm + 0.5) {
    dev = std::max(dev, 1.0);
  }
  return dev;
}

CellResult FaultCampaign::evaluate_cell(const sim::FaultSpec& spec) const {
  // One trace span per sweep cell: with --trace-out, the campaign's
  // per-worker timeline shows each cell's full print as one block.
  const obs::Span span("cell/" + spec.describe(), "campaign");
  RigOptions opts = options_.rig;
  opts.faults.push_back(spec);
  Rig rig(opts);
  // Observe-only monitoring: letting the print run to its natural end is
  // what makes false alarms (alarm + healthy part) distinguishable from
  // fail-safes (alarm + real deviation).
  detect::RealtimeMonitor monitor(rig.board().fpga().uart(), golden_,
                                  options_.detect);
  const RunResult r = rig.run(program_);

  CellResult cell;
  cell.fault = spec;
  cell.finished = r.finished;
  cell.killed = r.killed;
  cell.alarmed = monitor.alarmed();
  cell.kill_reason = r.kill_reason;
  cell.deviation = deviation_from_reference(r);
  cell.capture_transactions = r.capture.size();
  cell.crc_rejected = r.uart_crc_rejected;
  cell.fault_events = r.fault_stats.total();
  cell.sim_seconds = r.sim_seconds;

  const bool detected = r.killed || cell.alarmed;
  const bool deviates =
      cell.deviation > options_.deviation_threshold || !r.finished;
  if (detected) {
    cell.outcome =
        deviates ? CellOutcome::kFailSafe : CellOutcome::kFalseAlarm;
  } else {
    cell.outcome =
        deviates ? CellOutcome::kSilentCorruption : CellOutcome::kClean;
  }
  return cell;
}

CampaignReport FaultCampaign::run(const std::vector<sim::FaultSpec>& specs,
                                  ParallelRunner& pool) {
  run_reference();
  CampaignReport report;
  report.program_label = label_;
  report.clean_transactions = golden_.size();
  report.clean_filament_mm = reference_.part.total_filament_mm;
  report.cells = pool.map<CellResult>(
      specs.size(), [&](std::size_t i) { return evaluate_cell(specs[i]); });
  return report;
}

std::vector<sim::FaultSpec> FaultCampaign::default_sweep() {
  using sim::FaultKind;
  std::vector<sim::FaultSpec> specs;
  std::uint64_t seed = 0xFA17;
  const auto add = [&](FaultKind kind, std::string target, double intensity,
                       sim::Tick start, sim::Tick stop) {
    sim::FaultSpec s;
    s.kind = kind;
    s.target = std::move(target);
    s.intensity = intensity;
    s.start = start;
    s.stop = stop;
    s.seed = seed++;
    specs.push_back(std::move(s));
  };

  // Stuck STEP on the Arduino header: the monitors tap that side, so the
  // missing steps show up against the golden capture -> expected fail-safe
  // at full engagement.  Intensity is binary for stuck faults; the sweep
  // axis is the window length.
  add(FaultKind::kStuckLow, "arduino.X_STEP", 0.0, sim::seconds(20), 0);
  add(FaultKind::kStuckLow, "arduino.X_STEP", 1.0, sim::seconds(20),
      sim::seconds(22));
  add(FaultKind::kStuckLow, "arduino.X_STEP", 1.0, sim::seconds(20), 0);

  // Glitch pulses on the RAMPS-side STEP net: the motor sees extra steps
  // the monitors cannot -> expected silent corruption at high rates.
  add(FaultKind::kGlitch, "ramps.X_STEP", 0.0, sim::seconds(15), 0);
  add(FaultKind::kGlitch, "ramps.X_STEP", 5.0, sim::seconds(15), 0);
  add(FaultKind::kGlitch, "ramps.X_STEP", 200.0, sim::seconds(15), 0);

  // Hotend thermistor drift: the firmware's thermal protection is the
  // detector here -> expected kill (fail-safe) at strong drift.
  add(FaultKind::kAnalogDrift, "THERM_HOTEND", 0.0, sim::seconds(10), 0);
  add(FaultKind::kAnalogDrift, "THERM_HOTEND", 2.0, sim::seconds(10), 0);
  add(FaultKind::kAnalogDrift, "THERM_HOTEND", 50.0, sim::seconds(10), 0);

  // UART frame corruption: CRC framing must absorb it -> expected clean,
  // with crc_rejected counting the discarded frames.
  add(FaultKind::kUartBitFlip, "uart", 0.0, 0, 0);
  add(FaultKind::kUartBitFlip, "uart", 0.0005, 0, 0);
  add(FaultKind::kUartBitFlip, "uart", 0.01, 0, 0);

  // Scheduler timing jitter ("time noise", paper section V-C): the
  // detector margin must absorb it -> expected clean.
  add(FaultKind::kTimingJitter, "scheduler", 0.0, 0, 0);
  add(FaultKind::kTimingJitter, "scheduler", 50.0, 0, 0);
  add(FaultKind::kTimingJitter, "scheduler", 300.0, 0, 0);

  return specs;
}

}  // namespace offramps::host
