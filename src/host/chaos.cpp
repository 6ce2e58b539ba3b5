#include "host/chaos.hpp"

#include <algorithm>
#include <limits>

#include "core/bytes.hpp"
#include "core/session_wire.hpp"
#include "core/strict_parse.hpp"
#include "host/rig.hpp"
#include "obs/metrics.hpp"
#include "sim/error.hpp"

namespace offramps::host {

namespace {

constexpr std::uint32_t kEveryAttempt =
    std::numeric_limits<std::uint32_t>::max();

}  // namespace

const char* chaos_kind_name(ChaosKind k) {
  switch (k) {
    case ChaosKind::kNone: return "none";
    case ChaosKind::kCrash: return "crash";
    case ChaosKind::kStall: return "stall";
    case ChaosKind::kCorrupt: return "corrupt";
    case ChaosKind::kTruncate: return "truncate";
    case ChaosKind::kPowerJam: return "powerjam";
    case ChaosKind::kRingWedge: return "ringwedge";
    case ChaosKind::kDisconnect: return "disconnect";
    case ChaosKind::kFrameCorrupt: return "framecorrupt";
    case ChaosKind::kCacheTear: return "cachetear";
  }
  return "?";
}

bool live_drill(ChaosKind k) {
  return k >= ChaosKind::kCrash && k <= ChaosKind::kRingWedge;
}

bool session_drill(ChaosKind k) {
  return k == ChaosKind::kDisconnect || k == ChaosKind::kFrameCorrupt;
}

std::string ChaosSpec::to_string() const {
  if (kind == ChaosKind::kNone) return "none";
  std::string out = chaos_kind_name(kind);
  if (fires_for != kEveryAttempt) {
    out += ':';
    out += std::to_string(fires_for);
  }
  return out;
}

ChaosSpec parse_chaos(const std::string& text) {
  ChaosSpec spec;
  if (text.empty() || text == "none" || text == "clean") return spec;
  const auto colon = text.find(':');
  const std::string head = text.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : text.substr(colon + 1);

  if (head == "crash") {
    spec.kind = ChaosKind::kCrash;
  } else if (head == "stall") {
    spec.kind = ChaosKind::kStall;
  } else if (head == "corrupt") {
    spec.kind = ChaosKind::kCorrupt;
  } else if (head == "truncate") {
    spec.kind = ChaosKind::kTruncate;
  } else if (head == "powerjam") {
    spec.kind = ChaosKind::kPowerJam;
    spec.fires_for = kEveryAttempt;
  } else if (head == "ringwedge") {
    spec.kind = ChaosKind::kRingWedge;
    spec.fires_for = kEveryAttempt;
  } else if (head == "disconnect") {
    spec.kind = ChaosKind::kDisconnect;
  } else if (head == "framecorrupt") {
    spec.kind = ChaosKind::kFrameCorrupt;
  } else if (head == "cachetear") {
    spec.kind = ChaosKind::kCacheTear;
  } else {
    throw Error(
        "chaos: expected none|crash|stall|corrupt|truncate|powerjam|"
        "ringwedge|disconnect|framecorrupt|cachetear[:attempts], got \"" +
        text + "\"");
  }
  if (colon != std::string::npos) {
    const auto n = core::parse_long(arg);
    if (!n || *n < 1 || *n > 0xFFFFFFFFll) {
      throw Error("chaos: attempt count wants a positive integer: \"" +
                  text + "\"");
    }
    spec.fires_for = static_cast<std::uint32_t>(*n);
  }
  return spec;
}

ChaosInjector::ChaosInjector(const ChaosSpec& spec, std::uint32_t attempt)
    : spec_(spec), active_(spec.enabled() && attempt < spec.fires_for) {
  if (active_ && obs::enabled()) {
    static obs::Counter& injected =
        obs::Registry::instance().counter("host.chaos.injected");
    injected.add(1);
  }
}

void ChaosInjector::arm(Rig& rig) const {
  if (!active_ || spec_.kind != ChaosKind::kCrash) return;
  rig.scheduler().schedule_in(sim::from_seconds(spec_.crash_at_s), [] {
    throw Error("chaos: injected rig crash");
  });
}

bool ChaosInjector::pass_transaction() {
  if (!active_ || spec_.kind != ChaosKind::kStall) return true;
  if (seen_++ < spec_.after) return true;
  ++suppressed_;
  return false;
}

bool ChaosInjector::wedge_pump(std::size_t slots_run) const {
  return active_ && spec_.kind == ChaosKind::kRingWedge &&
         slots_run >= spec_.after;
}

bool ChaosInjector::jam_power() const {
  return active_ && spec_.kind == ChaosKind::kPowerJam;
}

void ChaosInjector::mangle_capture(std::vector<std::uint8_t>& bytes) const {
  if (!active_) return;
  if (spec_.kind == ChaosKind::kTruncate) {
    bytes.resize(bytes.size() / 2);
    return;
  }
  if (spec_.kind != ChaosKind::kCorrupt) return;
  // Capture binary layout: magic(4) version(2) flags(2) label_len(4)
  // label, then the u64 transaction count.  Overwrite that count with
  // an impossible multi-GB value: the bounded from_binary() must reject
  // it *before* allocating (the satellite hardening this PR tests).
  if (bytes.size() < 12) return;
  const std::size_t count_at =
      12 + static_cast<std::size_t>(core::load_le<std::uint32_t>(&bytes[8]));
  for (std::size_t i = count_at; i < count_at + 8 && i < bytes.size(); ++i) {
    bytes[i] = 0xFF;
  }
}

void ChaosInjector::mangle_session(std::vector<std::uint8_t>& bytes) const {
  if (!active_) return;
  if (spec_.kind == ChaosKind::kDisconnect) {
    // Cut mid-stream, but never inside the stream header: the drill is
    // "rig vanished during its print", not "garbage pipe".
    const std::size_t keep =
        std::max(core::wire::kStreamHeaderSize + 1, bytes.size() / 2);
    if (keep < bytes.size()) bytes.resize(keep);
    return;
  }
  if (spec_.kind != ChaosKind::kFrameCorrupt) return;
  // Walk the frames to the `after`-th kTxn and flip a byte inside its
  // embedded transaction frame (the counts region), so the outer framing
  // stays intact and the inner CRC is what rejects it.
  std::size_t pos = core::wire::kStreamHeaderSize;
  std::uint32_t txns_seen = 0;
  while (bytes.size() - pos >= core::wire::kFrameHeaderSize) {
    if (core::load_le<std::uint16_t>(&bytes[pos]) !=
        core::wire::kFrameMagic) {
      return;  // not a well-formed stream; nothing to drill
    }
    const std::uint8_t type = bytes[pos + 2];
    const auto len = core::load_le<std::uint32_t>(&bytes[pos + 3]);
    if (bytes.size() - pos - core::wire::kFrameHeaderSize < len) return;
    if (type == static_cast<std::uint8_t>(core::wire::FrameType::kTxn)) {
      if (txns_seen++ >= spec_.after) {
        bytes[pos + core::wire::kFrameHeaderSize + 8] ^= 0xFF;
        return;
      }
    }
    pos += core::wire::kFrameHeaderSize + len;
  }
}

}  // namespace offramps::host
