// The OFFRAMPS board itself (paper section III).
//
// Physically the board is three headers and two jumper banks: the Arduino
// Mega plugs into one side, the RAMPS 1.4 into the other, and the jumpers
// select - per signal group - whether nets connect straight through or
// detour via the Cmod-A7.  This class owns both pin banks, the fabric, and
// the jumper state, and implements the three routing configurations of
// paper Figure 3:
//
//   kDirect     (3a) straight jumpers; the FPGA is out of circuit
//   kFpgaMitm   (3b) all nets routed through the fabric (modifiable)
//   kFpgaRecord (3c) straight jumpers + FPGA taps for lossless recording
//
// The jumpers' 1 ns trace delay and the analog nets' 2 us XADC+DAC detour
// are fixed properties of the board (constants in board.cpp); the one
// setting is the fabric's UART period (BoardOptions::fpga).
#pragma once

#include <vector>

#include "core/fpga.hpp"
#include "core/trojans.hpp"
#include "sim/pins.hpp"
#include "sim/scheduler.hpp"

namespace offramps::core {

/// Jumper-selected signal path configuration (paper Figure 3).
enum class RouteMode { kDirect, kFpgaMitm, kFpgaRecord };

/// Board construction parameters.
struct BoardOptions {
  FpgaOptions fpga{};
};

/// The assembled OFFRAMPS board.
class Board {
 public:
  explicit Board(sim::Scheduler& sched, BoardOptions options = {},
                 RouteMode initial = RouteMode::kFpgaMitm);

  Board(const Board&) = delete;
  Board& operator=(const Board&) = delete;

  /// The header the firmware (Arduino) drives and reads.
  [[nodiscard]] sim::PinBank& arduino_side() { return arduino_; }
  /// The header the printer electronics (RAMPS) drive and read.
  [[nodiscard]] sim::PinBank& ramps_side() { return ramps_; }

  [[nodiscard]] Fpga& fpga() { return fpga_; }
  [[nodiscard]] TrojanController& trojans() { return trojans_; }

  /// Moves the jumpers.  Normally done before power-on; switching while
  /// signals are live re-synchronizes every net to its driver's level.
  void set_route(RouteMode mode);
  [[nodiscard]] RouteMode route() const { return mode_; }

 private:
  void connect_direct();

  sim::Scheduler& sched_;
  sim::PinBank arduino_;
  sim::PinBank ramps_;
  Fpga fpga_;
  TrojanController trojans_;
  RouteMode mode_ = RouteMode::kDirect;
  std::vector<sim::Connection> direct_;
};

}  // namespace offramps::core
