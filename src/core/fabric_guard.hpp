// In-fabric golden-model guard (extension).
//
// The paper's Limitations note that detection requires a connected host
// PC (the comparison script runs there), while "many 3D printers are
// intended to be run while not actively connected to a host computer".
// This module closes that gap: the golden step-count series is loaded
// into the fabric itself (block RAM on the real part), a hardware-style
// integer comparator checks each transaction as the reporter emits it,
// and on sustained mismatch the guard acts *through the MITM paths* -
// raising an alarm net and, optionally, safe-stopping the machine by
// releasing every stepper driver and forcing both heater gates off.
// No host, no serial link, no Python: the board defends the printer by
// itself.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/capture.hpp"
#include "core/fpga.hpp"

namespace offramps::core {

/// Guard configuration.
struct FabricGuardOptions {
  /// Margin of error, percent (integer math, as the fabric would do it).
  std::uint32_t margin_pct = 5;
  /// Counts below this are exempt from the percentage test.
  std::int32_t min_count = 20;
  /// Consecutive mismatching transactions required to alarm.
  std::uint32_t consecutive_to_alarm = 2;
  /// On alarm: force /EN high (motors free) and heater gates low.
  bool safe_stop = true;
};

/// Hardware-resident golden-model comparator with autonomous response.
/// The guard subscribes to the fabric's transaction stream at
/// construction and must outlive the print it monitors (on the real
/// board it is gateware - it cannot be "destroyed" mid-run).
class FabricGuard {
 public:
  /// Loads `golden` into the guard's memory and arms it on `fpga`.
  /// Safe-stop needs the MITM route; in record mode the guard can only
  /// raise the alarm net.
  FabricGuard(Fpga& fpga, Capture golden, FabricGuardOptions options = {});

  FabricGuard(const FabricGuard&) = delete;
  FabricGuard& operator=(const FabricGuard&) = delete;

  [[nodiscard]] bool alarmed() const { return alarmed_; }
  [[nodiscard]] std::uint32_t alarm_at_index() const { return alarm_index_; }
  /// The alarm output net (would drive a buzzer/relay on the real board).
  [[nodiscard]] sim::Wire& alarm_line() { return *alarm_line_; }
  [[nodiscard]] bool safe_stop_engaged() const { return safe_stopped_; }

 private:
  void on_transaction(const Transaction& txn);
  [[nodiscard]] bool transaction_mismatches(const Transaction& txn) const;
  void engage_safe_stop();

  Fpga& fpga_;
  std::vector<Transaction> golden_;
  FabricGuardOptions options_;
  std::unique_ptr<sim::Wire> alarm_line_;
  std::uint32_t consecutive_ = 0;
  bool alarmed_ = false;
  bool safe_stopped_ = false;
  std::uint32_t alarm_index_ = 0;
};

}  // namespace offramps::core
