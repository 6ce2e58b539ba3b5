// The byte codec under the four binary formats: capture `.bin`
// (core::Capture), session wire `OFSS` (core::wire), reference cache
// `OFRF` (svc::RefCache) and checkpoint `OFCK` (svc::Checkpoint).  All
// are little endian; an f64 travels as its IEEE-754 bit pattern and a
// string as a u32 length plus its bytes.  ByteReader is the one bounded
// reader their decoders run untrusted input through.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace offramps::core {

namespace detail {
/// The unsigned integer with T's size: the bits T travels as.
template <typename T>
using Bits = std::conditional_t<
    sizeof(T) == 1, std::uint8_t,
    std::conditional_t<sizeof(T) == 2, std::uint16_t,
                       std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                          std::uint64_t>>>;
}  // namespace detail

// The unroll pragmas let GCC fold each byte loop into one load or store.

/// Reads a little-endian T (an integer, or a double by bit pattern).
template <typename T>
[[nodiscard]] inline T load_le(const std::uint8_t* p) noexcept {
  using B = detail::Bits<T>;
  B v = 0;
#pragma GCC unroll 8
  for (std::size_t i = 0; i < sizeof(B); ++i) {
    v |= static_cast<B>(B{p[i]} << (8 * i));
  }
  return std::bit_cast<T>(v);
}

/// Writes `value` as sizeof(T) little-endian bytes at `p`.
template <typename T>
inline void store_le(std::uint8_t* p, T value) noexcept {
  using B = detail::Bits<T>;
  const B v = std::bit_cast<B>(value);
#pragma GCC unroll 8
  for (std::size_t i = 0; i < sizeof(B); ++i) {
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Appends little-endian fields to `out`.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(v); }
  void f64(double v) { put(v); }
  void bytes(const void* data, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), b, b + n);
  }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }

 private:
  template <typename T>
  void put(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    store_le(out_.data() + at, v);
  }

  std::vector<std::uint8_t>& out_;
};

/// Bounded little-endian reader over `size` bytes at `data`: every read
/// checks the bytes left, and every failure throws
/// offramps::Error("<context>: ...").  `context` must outlive the reader.
class ByteReader {
 public:
  /// A cap no u32 length exceeds: the input alone bounds the string.
  static constexpr std::size_t kUncapped = 0xFFFFFFFFu;

  ByteReader(const std::uint8_t* data, std::size_t size,
             const char* context) noexcept
      : data_(data), size_(size), context_(context) {}

  std::uint8_t u8() { return read<std::uint8_t>(); }
  std::uint16_t u16() { return read<std::uint16_t>(); }
  std::uint32_t u32() { return read<std::uint32_t>(); }
  std::uint64_t u64() { return read<std::uint64_t>(); }
  std::int64_t i64() { return read<std::int64_t>(); }
  double f64() { return read<double>(); }

  /// The next `n` bytes, stepped over.
  const std::uint8_t* bytes(std::size_t n) {
    need(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  /// A u32-length-prefixed string of at most `cap` bytes.
  std::string str(std::size_t cap, const char* what);

  /// A `Prefix` count of records of at least `record_bytes` (> 0) each.
  /// A count the remaining input cannot hold throws before the caller
  /// reserves anything for it.
  template <typename Prefix = std::uint64_t>
  std::size_t count(std::size_t record_bytes, const char* what) {
    const Prefix n = read<Prefix>();
    if (n > remaining() / record_bytes) {
      fail(std::string("truncated input (") + what +
           " exceeds remaining bytes)");
    }
    return static_cast<std::size_t>(n);
  }

  /// Checks and steps over the format's magic bytes.
  void magic(std::string_view tag, const char* what);

  /// Throws unless every byte was consumed.
  void finish() const;

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }

  /// Throws offramps::Error("<context>: <why>").
  [[noreturn]] void fail(const std::string& why) const;

 private:
  template <typename T>
  T read() {
    need(sizeof(T));
    const T v = load_le<T>(data_ + pos_);
    pos_ += sizeof(T);
    return v;
  }
  void need(std::size_t n) const {
    if (remaining() < n) truncated(n);
  }
  [[noreturn]] void truncated(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  const char* context_;
};

/// 64-bit FNV-1a, fed field by field: a u64 as its 8 little-endian bytes,
/// a double by bit pattern, a string as its u64 length then its bytes.
class Fnv1a {
 public:
  /// One digit short of the canonical 14695981039346656037.  Every `.ref`
  /// file name, every checkpoint spec digest and every pinned test digest
  /// was computed with this value, so it stays.
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void bytes(const void* data, std::size_t n) noexcept {
    const auto* b = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= kPrime;
    }
  }
  void u64(std::uint64_t v) noexcept {
    std::uint8_t b[8];
    store_le(b, v);
    bytes(b, sizeof(b));
  }
  void f64(double v) noexcept { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) noexcept {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

/// Reads a whole file.  Throws offramps::Error("<context>: cannot open
/// <path>") when it cannot be opened, and ("<context>: read failed for
/// <path>") on a read error, such as a directory.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path,
                                                  const char* context);

/// Writes "<path>.tmp", then renames it over `path`, which POSIX makes
/// atomic within a filesystem: a reader sees the old file or the new
/// one, never a torn one.  Throws offramps::Error("<context>: ...").
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes,
                       const char* context);

}  // namespace offramps::core
