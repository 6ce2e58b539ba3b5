// Service-layer chaos injection.
//
// PR 1's sim::FaultInjector corrupts the *simulated hardware* (pins,
// analog nets, UART bits, event timing); this injector attacks one layer
// up, at the host/service boundary the fleet supervisor has to defend:
// rig phases that throw, capture streams that wedge mid-print, capture
// files whose length prefixes lie, power probes that jam, and consumer
// pumps that stop draining their ring buffer.  Each fault is keyed on
// (rig, attempt), so a chaos campaign is fully deterministic: the same
// spec produces the same classification (clean / recovered / degraded /
// lost) at any worker count.
//
// A ChaosSpec travels with a rig spec ("which fault, for how many
// attempts"); a ChaosInjector is instantiated per *attempt* and applies
// the fault only while `attempt < fires_for` - so "crash:1" fails the
// first attempt and lets the retry succeed (supervisor verdict:
// recovered), while "stall:99" out-lives any sane retry budget
// (verdict: lost).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace offramps::host {

class Rig;

/// What to break.  kNone disables injection (the default everywhere).
enum class ChaosKind : std::uint8_t {
  kNone,
  kCrash,     // throw from a scheduled sim event mid-print
  kStall,     // suppress the capture tap after N transactions (producer
              // wedge: the detector starves while the print continues)
  kCorrupt,   // overwrite the capture's transaction-count prefix with a
              // multi-GB lie before validation
  kTruncate,  // drop the tail half of the serialized capture
  kPowerJam,  // power side-channel probe throws every service slot
  kRingWedge, // consumer pump stops draining after N slots (backpressure
              // must absorb it losslessly - not an attempt failure)
  // Session-layer drills (--replay).  These are no-ops inside a live rig
  // attempt; they mangle recorded session streams (mangle_session) and
  // must land on the supervisor's ladder as recovered (framecorrupt:
  // the reader resyncs and drops the damaged transaction) or lost
  // (disconnect: the stream dies before its end marker).  Appended at
  // the enum tail so checkpointed ChaosSpecs keep their values.
  kDisconnect,    // cut the session stream mid-frame
  kFrameCorrupt,  // flip bytes inside one kTxn frame (inner CRC rejects)
  // Half-write a reference cache entry.  No mode performs it, so every
  // mode rejects it; it still parses so that session hellos and
  // checkpoints recorded with it keep reading.
  kCacheTear,
};

const char* chaos_kind_name(ChaosKind k);

/// True for the kinds a live rig attempt performs (crash, stall, corrupt,
/// truncate, powerjam, ringwedge); Fleet::run rejects any other order.
[[nodiscard]] bool live_drill(ChaosKind k);
/// True for the kinds --replay performs on a recorded session
/// (disconnect, framecorrupt); replay_corpus rejects any other order.
[[nodiscard]] bool session_drill(ChaosKind k);

/// One rig's standing chaos order.
struct ChaosSpec {
  ChaosKind kind = ChaosKind::kNone;
  /// Attempts [0, fires_for) are faulted; later retries run clean.
  std::uint32_t fires_for = 1;
  /// kCrash: sim time of the injected throw.
  double crash_at_s = 1.0;
  /// kStall / kRingWedge: transactions / pump slots before the wedge.
  std::uint32_t after = 5;

  [[nodiscard]] bool enabled() const { return kind != ChaosKind::kNone; }
  /// "none", "crash:1", "stall:99", "powerjam" (no suffix = every
  /// attempt).  parse_chaos() round-trips this.
  [[nodiscard]] std::string to_string() const;
};

/// Parses "" / "none" / "clean" / "<kind>[:<fires_for>]" where kind is
/// crash | stall | corrupt | truncate | powerjam | ringwedge |
/// disconnect | framecorrupt | cachetear.  Without a count,
/// crash/stall/corrupt/truncate and the session drills default to 1
/// (first attempt only) and powerjam/ringwedge to every attempt.
/// Throws offramps::Error on anything else.
ChaosSpec parse_chaos(const std::string& text);

/// Applies one rig's chaos order to one supervised attempt.  The fleet
/// orchestrator consults it at each hook point; when inactive (no spec,
/// or the attempt is past fires_for) every query is a cheap no-op.
class ChaosInjector {
 public:
  ChaosInjector(const ChaosSpec& spec, std::uint32_t attempt);

  [[nodiscard]] bool active() const { return active_; }

  /// kCrash: schedules the throwing event on the rig's scheduler.
  void arm(Rig& rig) const;

  /// Producer-side gate for the capture tap.  Returns false when the
  /// transaction must be suppressed (kStall past the trigger point).
  [[nodiscard]] bool pass_transaction();

  /// Consumer-side gate: true when the pump's poll must be skipped
  /// (kRingWedge past the trigger slot).
  [[nodiscard]] bool wedge_pump(std::size_t slots_run) const;

  /// kPowerJam: the power-streaming hook must throw this slot.
  [[nodiscard]] bool jam_power() const;

  /// kCorrupt / kTruncate: mangles a serialized capture in place so the
  /// bounded from_binary() validation rejects it.
  void mangle_capture(std::vector<std::uint8_t>& bytes) const;

  /// kDisconnect / kFrameCorrupt: mangles a recorded session stream
  /// (core::wire format) in place.  Disconnect cuts the stream mid-frame
  /// (the reader must classify the session lost); framecorrupt flips
  /// bytes inside the `after`-th kTxn frame so the inner CRC rejects
  /// that transaction (the reader must drop it and recover).
  void mangle_session(std::vector<std::uint8_t>& bytes) const;

  /// Transactions swallowed by the stall gate so far.
  [[nodiscard]] std::uint64_t suppressed() const { return suppressed_; }

 private:
  ChaosSpec spec_;
  bool active_ = false;
  std::uint64_t seen_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace offramps::host
