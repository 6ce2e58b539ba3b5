// The three workloads: generated fleets, set-up, one pass, and the gate.
#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "gcode/flaw3d.hpp"
#include "host/slicer.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace svc = offramps::svc;

namespace {

/// Sweep objects (cube footprint, height in mm): several references, and
/// rig lengths that differ enough to give the pool a tail to balance.
constexpr std::pair<double, double> kSweepObjects[] = {
    {6.0, 2.0}, {8.0, 3.0}, {10.0, 2.5}};

void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::vector<svc::RigSpec> make_specs(Kind kind, std::uint64_t seed,
                                     bool tiny) {
  std::vector<svc::RigSpec> specs;
  switch (kind) {
    case Kind::kCampaign:
      // The fleetd demo fleet (16 rigs, the first 4 Flaw3D variants of
      // demo_specs spread through it), reseeded.
      specs = tiny ? svc::Fleet::demo_specs(4, 1)
                   : svc::Fleet::demo_specs(16, 4);
      break;
    case Kind::kSweep: {
      const std::size_t n = tiny ? 3 : 24;
      specs.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        specs[i].name = "sweep-" + std::to_string(i);
        specs[i].cube_mm = kSweepObjects[i % 3].first;
        specs[i].height_mm = kSweepObjects[i % 3].second;
      }
      break;
    }
    case Kind::kReplay: {
      // Every Table II variant next to a clean rig.
      const std::size_t variants = tiny ? 2 : table2_variants().size();
      specs.resize(2 * variants);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        specs[i].name = "replay-" + std::to_string(i);
        if (i % 2 == 0) {
          specs[i].sabotage = svc::parse_sabotage(table2_variants()[i / 2]);
        }
      }
      break;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].seed = 1000 * seed + i;
  }
  return specs;
}

}  // namespace

bool parse_kind(const std::string& text, Kind& out) {
  for (const Kind k : {Kind::kCampaign, Kind::kSweep, Kind::kReplay}) {
    if (text == kind_name(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCampaign: return "campaign";
    case Kind::kSweep: return "sweep";
    case Kind::kReplay: return "replay";
  }
  return "?";
}

const std::vector<std::string>& table2_variants() {
  static const std::vector<std::string> v{
      "reduce:0.5", "relocate:5",  "reduce:0.85", "relocate:10",
      "reduce:0.9", "relocate:20", "reduce:0.98", "relocate:100"};
  return v;
}

Workload::Workload(Kind kind, std::uint64_t seed, bool tiny,
                   std::string work_dir)
    : kind_(kind),
      work_dir_(std::move(work_dir)),
      specs_(make_specs(kind, seed, tiny)) {
  switch (kind_) {
    case Kind::kCampaign:
      // offramps_fleetd --demo 16 --sabotage 4 --jobs 1: defaults
      // otherwise (all channels, safe-stop, no cache/captures/checkpoint).
      options_.workers = 1;
      break;
    case Kind::kSweep:
      options_.workers = 4;
      options_.safe_stop = false;
      options_.cache_dir = work_dir_ + "/cache";
      options_.save_captures_dir = work_dir_ + "/captures";
      options_.checkpoint_path = work_dir_ + "/sweep.ckpt";
      options_.checkpoint_every = 1;
      break;
    case Kind::kReplay:
      // The recording campaign; the timed replay mirrors its detector,
      // channel and reference settings (all defaults).
      options_.workers = 1;
      options_.cache_dir = work_dir_ + "/cache";
      options_.save_captures_dir = work_dir_ + "/corpus";
      replay_.service.workers = 1;
      replay_.service.cache_dir = options_.cache_dir;
      break;
  }
}

std::size_t Workload::workers() const {
  return kind_ == Kind::kReplay ? replay_.service.workers : options_.workers;
}

std::string Workload::checkpoint_path() const {
  return options_.checkpoint_path;
}

void Workload::setup(Gate& gate) {
  fresh_dir(work_dir_);
  expected_.clear();
  recorded_corpus_.clear();
  switch (kind_) {
    case Kind::kCampaign: {
      // Slice and lint every object and build every sabotaged program:
      // the front end a campaign's inputs go through.
      std::set<std::pair<double, double>> seen;
      for (const svc::RigSpec& s : specs_) {
        const offramps::host::CubeSpec cube{.size_x_mm = s.cube_mm,
                                            .size_y_mm = s.cube_mm,
                                            .height_mm = s.height_mm,
                                            .center_x_mm = 110.0,
                                            .center_y_mm = 100.0};
        const offramps::gcode::Program program =
            offramps::host::slice_cube(cube, options_.profile);
        if (seen.insert({s.cube_mm, s.height_mm}).second) {
          const auto lint = offramps::analyze::analyze_program(program);
          gate.judge(lint.oracle.counters_armed,
                     "setup: static oracle not armed for " + s.name);
        }
        if (s.sabotage.kind == svc::Sabotage::Kind::kReduction) {
          (void)offramps::gcode::flaw3d::apply_reduction(
              program, {.factor = s.sabotage.factor});
        } else if (s.sabotage.kind == svc::Sabotage::Kind::kRelocation) {
          (void)offramps::gcode::flaw3d::apply_relocation(
              program, {.every_n_moves = s.sabotage.every_n});
        }
      }
      break;
    }
    case Kind::kSweep: {
      // Warm the reference cache through the fleet's own reference phase
      // (stop_after = 1 ends the campaign after its first rig), on one
      // worker like every other set-up.
      svc::FleetOptions warm = options_;
      warm.save_captures_dir.clear();
      warm.checkpoint_path.clear();
      warm.stop_after = 1;
      warm.workers = 1;
      (void)svc::Fleet(warm).run(specs_);
      std::size_t entries = 0;
      for (const auto& e : fs::directory_iterator(options_.cache_dir)) {
        entries += e.path().extension() == ".ref" ? 1 : 0;
      }
      gate.judge(entries == std::size(kSweepObjects),
                 "setup: reference cache holds " + std::to_string(entries) +
                     " entries");
      fs::create_directories(options_.save_captures_dir);
      break;
    }
    case Kind::kReplay: {
      fs::create_directories(options_.save_captures_dir);
      recording_ = svc::Fleet(options_).run(specs_);
      judge(recording_, gate);
      expected_ = recording_.to_json();
      break;
    }
  }
  // One untimed warm-up pass: it fixes the expected report bytes (replay
  // checks it against the live recording) and lets caches settle.
  (void)pass(gate);
}

svc::FleetReport Workload::pass(Gate& gate) {
  svc::FleetReport report =
      kind_ == Kind::kReplay
          ? svc::replay_corpus(options_.save_captures_dir, replay_)
          : svc::Fleet(options_).run(specs_);
  judge(report, gate);
  const std::string bytes = report.to_json();
  if (expected_.empty()) {
    expected_ = bytes;
  } else if (bytes != expected_) {
    gate.fail(std::string(kind_name(kind_)) +
                  ": report bytes differ from the expected report",
              report.rigs.size());
  }
  return report;
}

void Workload::judge(const svc::FleetReport& report, Gate& gate) const {
  if (report.rigs.size() != specs_.size() || !report.complete) {
    gate.fail("report covers " + std::to_string(report.rigs.size()) +
              " of " + std::to_string(specs_.size()) + " rigs");
  }
  for (const svc::RigOutcome& r : report.rigs) {
    const bool sabotaged = r.spec.sabotage.kind != svc::Sabotage::Kind::kNone;
    std::string cause;
    if (r.status != svc::RigStatus::kOk) {
      cause = std::string("status ") + svc::rig_status_name(r.status);
    } else if (r.detector.alarmed != sabotaged) {
      cause = sabotaged ? "sabotage missed" : "false alarm";
    } else if (kind_ == Kind::kSweep && !r.print_finished) {
      cause = "print did not finish";
    }
    gate.judge(cause.empty(), r.spec.name + ": " + cause);
  }
}

std::string Workload::session_corpus(Gate& gate) {
  if (kind_ != Kind::kCampaign) return options_.save_captures_dir;
  if (recorded_corpus_.empty()) {
    svc::FleetOptions rec = options_;
    rec.save_captures_dir = work_dir_ + "/captures";
    fs::create_directories(rec.save_captures_dir);
    const svc::FleetReport report = svc::Fleet(rec).run(specs_);
    judge(report, gate);
    if (report.to_json() != expected_) {
      gate.fail("campaign: recording captures changed the report bytes",
                report.rigs.size());
    }
    recorded_corpus_ = rec.save_captures_dir;
  }
  return recorded_corpus_;
}

}  // namespace perfbench
