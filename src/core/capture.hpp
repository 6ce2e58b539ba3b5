// Capture data model: what the OFFRAMPS streams to the host during print
// monitoring (paper section V-B).
//
// Every 0.1 s the FPGA's UART control unit sends one 16-byte transaction:
// the four signed 32-bit step counters (X, Y, Z, E) accumulated since
// homing.  A `Capture` is the host-side log of one print: the transaction
// series plus the final counter values at print end (used by the paper's
// final 0%-margin check).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace offramps::core {

/// CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) over `len` bytes.  This is
/// the checksum the UART frame format carries so receivers can discard
/// transactions corrupted on the wire instead of mis-counting.
[[nodiscard]] std::uint16_t crc16_ccitt(const std::uint8_t* data,
                                        std::size_t len);

/// One UART transaction: cumulative step counts per motor.
struct Transaction {
  std::uint32_t index = 0;                 // transaction sequence number
  std::array<std::int32_t, 4> counts{};    // X, Y, Z, E
  std::uint64_t time_ns = 0;               // capture-side timestamp

  /// On-the-wire frame layout:
  ///   [0]     0xA5   sync magic, byte 0
  ///   [1]     0x5A   sync magic, byte 1
  ///   [2..5]  index, u32 little endian
  ///   [6..21] counts, 4 x i32 little endian
  ///   [22..23] CRC-16/CCITT over bytes [2..21], little endian
  /// The magic lets a receiver that lost byte alignment (dropped or
  /// duplicated bytes) hunt for the next frame boundary; the CRC catches
  /// bit flips; the embedded index keeps golden-model comparison aligned
  /// even when whole frames are discarded.
  static constexpr std::size_t kFrameSize = 24;
  static constexpr std::uint8_t kMagic0 = 0xA5;
  static constexpr std::uint8_t kMagic1 = 0x5A;

  /// Serializes the bare counts payload (4 x int32, little endian) -- the
  /// paper's original unframed 16-byte transaction body.
  [[nodiscard]] std::array<std::uint8_t, 16> to_bytes() const;
  /// Decodes a bare counts payload.
  static Transaction from_bytes(const std::array<std::uint8_t, 16>& bytes,
                                std::uint32_t index, std::uint64_t time_ns);

  /// Serializes the full framed transaction (magic + index + counts + CRC).
  [[nodiscard]] std::array<std::uint8_t, kFrameSize> to_frame() const;
  /// Validates and decodes a frame.  Returns nullopt when the magic or the
  /// CRC does not check out.
  static std::optional<Transaction> from_frame(
      const std::array<std::uint8_t, kFrameSize>& frame,
      std::uint64_t time_ns);
};

/// A full print capture.
struct Capture {
  std::string label;
  std::vector<Transaction> transactions;
  /// Counter values at the very end of the print (0%-margin final check).
  std::array<std::int64_t, 4> final_counts{};
  bool print_completed = false;  // false when the print was killed/aborted

  [[nodiscard]] std::size_t size() const { return transactions.size(); }
  [[nodiscard]] bool empty() const { return transactions.empty(); }

  /// Renders the "Index, X, Y, Z, E" CSV shown in the paper's Figure 4.
  [[nodiscard]] std::string to_csv() const;
  /// Parses a CSV produced by to_csv().  Every row is exactly five
  /// fields, a u32 index and four i32 counts; the footer is exactly
  /// "# final" with four i64 finals and a 0 or 1 (a file without one
  /// takes its last row's counts, completed).  Anything else - a value
  /// out of its type's range, a missing or extra field - throws
  /// offramps::Error.
  static Capture from_csv(const std::string& text, std::string label = {});

  /// Binary serialization, for fleet runs that persist/replay captures.
  /// Layout (the core/bytes.hpp codec, little endian): "OFRC" magic, u16
  /// format version, u16 flags (bit 0 = print_completed), u32 label
  /// length + label bytes, u64 transaction count, then per transaction
  /// u32 index + 4 x i32 counts + u64 time_ns, then 4 x i64 final
  /// counts.  The two length prefixes make truncation detectable without
  /// a trailing checksum.
  static constexpr std::uint16_t kBinaryVersion = 1;
  [[nodiscard]] std::vector<std::uint8_t> to_binary() const;
  /// Decodes to_binary() output through core::ByteReader.  Throws
  /// offramps::Error on a bad magic, an unknown version, a buffer
  /// shorter than its length prefixes promise (truncated file), or
  /// trailing bytes.
  static Capture from_binary(const std::uint8_t* data, std::size_t size);
  static Capture from_binary(const std::vector<std::uint8_t>& bytes) {
    return from_binary(bytes.data(), bytes.size());
  }

  /// Writes to_binary() atomically (core::write_file_atomic); read it
  /// back with from_binary(core::read_file(...)).  Throws
  /// offramps::Error on I/O failure.
  void save_binary(const std::string& path) const;
};

}  // namespace offramps::core
