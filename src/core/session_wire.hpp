// Rig-session wire format: how a rig (or a saved capture corpus) streams
// one print's worth of detector input to the fleet daemon.
//
// A session is the stream header followed by framed events, in the exact
// order the live rig drove its `svc::OnlineDetector`:
//
//   stream  := "OFSS" u16 version u16 reserved  frame*
//   frame   := u16 magic(0xF5A7) u8 type u32 payload_len payload
//
//   kHello   rig identity: index, seed, object dims, sabotage/chaos specs
//   kTxn     one UART transaction (Transaction::to_frame + u64 time_ns);
//            the embedded frame CRC makes wire corruption detectable
//   kPower   one power-trace sample (t_s, watts)
//   kSample  one generic side-channel sample (kind byte + t_s + value);
//            power keeps its dedicated kPower frame so pre-multi-modal
//            corpora stay replayable, new channels ride this one
//   kSlot    one consumer service slot (the pump's poll budget); these
//            markers let a replay reproduce ring occupancy - and thus
//            `ring_high_water` / `backpressure_stalls` - byte for byte
//   kFinish  the finalized Capture blob (Capture::to_binary)
//   kEnd     session epilogue: rig-level facts the capture alone cannot
//            carry (print_finished, safe_stopped, sim_seconds, counts)
//
// Everything is little endian, written and read with core/bytes.hpp.
// The reader is bounded (every length is validated against a per-type
// cap before allocation; hello and end payloads go through
// core::ByteReader, fixed frames through load_le) and incremental: a
// corrupted frame header makes it hunt for the next magic instead of
// dying, mirroring the UART receiver's own resync behavior, and the skip
// is counted so a session that needed resyncs can be reported as
// "recovered" rather than silently clean.  A hello with a non-finite
// object size and an end with a non-finite or negative sim_seconds count
// as damage too.  A stream that ends before kEnd is a mid-stream
// disconnect.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/capture.hpp"

namespace offramps::core::wire {

inline constexpr std::array<std::uint8_t, 4> kStreamMagic{'O', 'F', 'S', 'S'};
inline constexpr std::uint16_t kStreamVersion = 1;
inline constexpr std::size_t kStreamHeaderSize = 8;

inline constexpr std::uint16_t kFrameMagic = 0xF5A7;  // bytes A7 F5 on wire
inline constexpr std::size_t kFrameHeaderSize = 7;    // magic + type + len

enum class FrameType : std::uint8_t {
  kHello = 1,
  kTxn = 2,
  kPower = 3,
  kSlot = 4,
  kFinish = 5,
  kEnd = 6,
  kSample = 7,
};

/// Side-channel sample taxonomy of kSample frames (matches
/// plant::SampleKind - append only).
inline constexpr std::uint8_t kSampleKindMin = 1;  // power
inline constexpr std::uint8_t kSampleKindMax = 3;  // vibration

/// Per-type payload bounds, enforced before any allocation.  kTxn, kPower,
/// kSlot and kEnd are fixed-size; kHello and kFinish are capped.
inline constexpr std::size_t kTxnPayloadSize = Transaction::kFrameSize + 8;
inline constexpr std::size_t kPowerPayloadSize = 16;
inline constexpr std::size_t kSamplePayloadSize = 17;  // kind + t_s + value
inline constexpr std::size_t kEndPayloadSize = 1 + 1 + 8 + 4 * 8;
inline constexpr std::size_t kMaxHelloPayload = 4096;
inline constexpr std::size_t kMaxFinishPayload = 1u << 26;  // 64 MiB

/// Session identity, sent first.  Sabotage/chaos travel as their CLI spec
/// strings (`svc::parse_sabotage` / `host::parse_chaos` grammar) so the
/// report renders them exactly as the live campaign would.
struct SessionHello {
  std::uint32_t rig_index = 0;   // position in the campaign (report order)
  std::uint64_t seed = 0;
  double cube_mm = 0.0;
  double height_mm = 0.0;
  std::string name;
  std::string sabotage;  // "clean", "reduce:0.50", ...
  std::string chaos;     // "none", "crash:0.5", ...
};

/// Session epilogue: outcome facts beyond the detector's own report.
struct SessionMeta {
  bool print_finished = false;
  bool safe_stopped = false;
  double sim_seconds = 0.0;
  std::array<std::int64_t, 4> final_counts{};
};

// ---- writers ----------------------------------------------------------

void append_stream_header(std::vector<std::uint8_t>& out);
void append_hello(std::vector<std::uint8_t>& out, const SessionHello& hello);
void append_txn(std::vector<std::uint8_t>& out, const Transaction& txn);
void append_power(std::vector<std::uint8_t>& out, double t_s, double watts);
void append_sample(std::vector<std::uint8_t>& out, std::uint8_t kind,
                   double t_s, double value);
void append_slot(std::vector<std::uint8_t>& out);
void append_finish(std::vector<std::uint8_t>& out, const Capture& capture);
void append_end(std::vector<std::uint8_t>& out, const SessionMeta& meta);

/// Accumulates one session's event stream in order and persists it with
/// core::write_file_atomic.  Throws offramps::Error on I/O failure.
class SessionRecorder {
 public:
  SessionRecorder() { append_stream_header(bytes_); }

  void hello(const SessionHello& h) { append_hello(bytes_, h); }
  void txn(const Transaction& t) { append_txn(bytes_, t); }
  void power(double t_s, double watts) { append_power(bytes_, t_s, watts); }
  void sample(std::uint8_t kind, double t_s, double value) {
    append_sample(bytes_, kind, t_s, value);
  }
  void slot() { append_slot(bytes_); }
  void finish(const Capture& c) { append_finish(bytes_, c); }
  void end(const SessionMeta& m) { append_end(bytes_, m); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  void save(const std::string& path) const;

 private:
  std::vector<std::uint8_t> bytes_;
};

// ---- reader -----------------------------------------------------------

/// One decoded frame.  For kTxn the transaction is pre-validated (inner
/// magic + CRC); frames whose inner check fails are dropped and counted.
struct Frame {
  FrameType type = FrameType::kSlot;
  Transaction txn;                    // kTxn
  double power_t_s = 0.0;             // kPower
  double power_watts = 0.0;           // kPower
  std::uint8_t sample_kind = 0;       // kSample
  double sample_t_s = 0.0;            // kSample
  double sample_value = 0.0;          // kSample
  SessionHello hello;                 // kHello
  std::vector<std::uint8_t> finish;   // kFinish: Capture::to_binary blob
  SessionMeta end;                    // kEnd
};

/// Incremental, bounded session parser.  Feed arbitrary byte chunks; it
/// emits well-formed frames through the callback and stops consuming at
/// the first kEnd frame (so concatenated sessions on one pipe split
/// cleanly).  Framing damage is survived by hunting for the next frame
/// magic; the hunt distance is irrelevant, only the count of resync gaps
/// and dropped transactions is kept.
class FrameReader {
 public:
  using Callback = std::function<void(const Frame&)>;

  /// Feeds `n` bytes.  Returns how many were consumed; short only when
  /// the session ended (kEnd seen) or failed - leftover bytes belong to
  /// the next stream.  Invokes `cb` once per decoded frame; the Frame is
  /// reused across calls, so only the fields of its type are meaningful,
  /// and only during the call.
  std::size_t feed(const std::uint8_t* data, std::size_t n,
                   const Callback& cb);

  /// Signals end of input.  A session that never reached kEnd is a
  /// mid-stream disconnect and is marked failed.
  void close();

  [[nodiscard]] bool ended() const { return ended_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Count of resync gaps (corrupted outer framing skipped over).
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  /// Count of kTxn frames dropped by the inner magic/CRC check.
  [[nodiscard]] std::uint64_t corrupt_txns() const { return corrupt_txns_; }

 private:
  void fail(const std::string& why);
  /// Parses complete frames out of `size` bytes at `data`; returns bytes
  /// consumed.
  std::size_t drain(const std::uint8_t* data, std::size_t size,
                    const Callback& cb);

  /// The unconsumed tail of earlier chunks (empty while feed parses a
  /// chunk in place).
  std::vector<std::uint8_t> buffer_;
  bool header_seen_ = false;
  bool ended_ = false;
  bool failed_ = false;
  bool in_resync_gap_ = false;
  std::string error_;
  std::uint64_t resyncs_ = 0;
  std::uint64_t corrupt_txns_ = 0;
};

// ---- corpus iteration -------------------------------------------------

/// Lists regular files under `dir` with the given extension, sorted by
/// filename so corpus iteration order is deterministic across platforms
/// and directory-entry orderings.  Throws offramps::Error when `dir` is
/// not a readable directory.
std::vector<std::string> list_corpus_files(const std::string& dir,
                                           const std::string& extension);

/// The session-corpus flavor: `*.ofs` files written next to the fleet's
/// `--captures` output.
inline std::vector<std::string> list_session_corpus(const std::string& dir) {
  return list_corpus_files(dir, ".ofs");
}

}  // namespace offramps::core::wire
