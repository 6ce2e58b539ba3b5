#include "core/fabric_guard.hpp"

#include <cstdlib>

namespace offramps::core {

FabricGuard::FabricGuard(Fpga& fpga, Capture golden,
                         FabricGuardOptions options)
    : fpga_(fpga),
      golden_(std::move(golden.transactions)),
      options_(options),
      alarm_line_(std::make_unique<sim::Wire>(fpga.scheduler(),
                                              "fpga.GUARD_ALARM")) {
  fpga_.uart().on_transaction(
      [this](const Transaction& txn) { on_transaction(txn); });
}

bool FabricGuard::transaction_mismatches(const Transaction& txn) const {
  if (txn.index >= golden_.size()) {
    // Outrunning the stored golden series is itself anomalous.
    return true;
  }
  const Transaction& g = golden_[txn.index];
  for (std::size_t c = 0; c < 4; ++c) {
    // Pure integer comparison, as the fabric comparator would compute:
    // |g - o| * 100 > margin * |g|.
    const std::int64_t gv = g.counts[c];
    const std::int64_t ov = txn.counts[c];
    if (gv == ov) continue;
    if (std::llabs(gv) < options_.min_count &&
        std::llabs(ov) < options_.min_count) {
      continue;
    }
    const std::int64_t diff = std::llabs(gv - ov);
    if (diff * 100 >
        static_cast<std::int64_t>(options_.margin_pct) * std::llabs(gv)) {
      return true;
    }
  }
  return false;
}

void FabricGuard::on_transaction(const Transaction& txn) {
  if (alarmed_) return;
  if (transaction_mismatches(txn)) {
    ++consecutive_;
  } else {
    consecutive_ = 0;
  }
  if (consecutive_ >= options_.consecutive_to_alarm) {
    alarmed_ = true;
    alarm_index_ = txn.index;
    alarm_line_->set(true);
    if (options_.safe_stop) engage_safe_stop();
  }
}

void FabricGuard::engage_safe_stop() {
  if (!fpga_.mitm_active()) return;  // record mode: alarm only
  safe_stopped_ = true;
  // Release every driver and kill both heaters, downstream of the
  // firmware: whatever the compromised controller does next, the
  // machine no longer moves or heats.
  for (const auto axis : sim::kAllAxes) {
    fpga_.path(sim::enable_pin(axis)).force(true);  // /EN high = free
  }
  fpga_.path(sim::Pin::kHotendHeat).force(false);
  fpga_.path(sim::Pin::kBedHeat).force(false);
  fpga_.path(sim::Pin::kFan).force(false);
}

}  // namespace offramps::core
