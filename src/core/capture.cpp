#include "core/capture.hpp"

#include <algorithm>
#include <concepts>
#include <cstdio>
#include <string_view>

#include "core/bytes.hpp"
#include "core/strict_parse.hpp"
#include "sim/error.hpp"

namespace offramps::core {

namespace {

/// kCrc16Table[b]: the CRC register after shifting byte `b` through the
/// polynomial bit by bit, so the checksum takes one lookup per byte.
constexpr std::array<std::uint16_t, 256> kCrc16Table = [] {
  std::array<std::uint16_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    auto crc = static_cast<std::uint16_t>(b << 8);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}();

}  // namespace

std::uint16_t crc16_ccitt(const std::uint8_t* data, std::size_t len) {
  std::uint16_t crc = 0xFFFF;
  for (std::size_t i = 0; i < len; ++i) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kCrc16Table[(crc >> 8) ^ data[i]]);
  }
  return crc;
}

std::array<std::uint8_t, 16> Transaction::to_bytes() const {
  std::array<std::uint8_t, 16> out{};
  for (std::size_t i = 0; i < 4; ++i) store_le(out.data() + 4 * i, counts[i]);
  return out;
}

Transaction Transaction::from_bytes(const std::array<std::uint8_t, 16>& bytes,
                                    std::uint32_t index,
                                    std::uint64_t time_ns) {
  Transaction t;
  t.index = index;
  t.time_ns = time_ns;
  for (std::size_t i = 0; i < 4; ++i) {
    t.counts[i] = load_le<std::int32_t>(bytes.data() + 4 * i);
  }
  return t;
}

std::array<std::uint8_t, Transaction::kFrameSize> Transaction::to_frame()
    const {
  std::array<std::uint8_t, kFrameSize> f{};
  f[0] = kMagic0;
  f[1] = kMagic1;
  store_le(f.data() + 2, index);
  const auto payload = to_bytes();
  std::copy(payload.begin(), payload.end(), f.begin() + 6);
  store_le(f.data() + 22, crc16_ccitt(f.data() + 2, 20));
  return f;
}

std::optional<Transaction> Transaction::from_frame(
    const std::array<std::uint8_t, kFrameSize>& frame,
    std::uint64_t time_ns) {
  if (frame[0] != kMagic0 || frame[1] != kMagic1) return std::nullopt;
  if (crc16_ccitt(frame.data() + 2, 20) !=
      load_le<std::uint16_t>(frame.data() + 22)) {
    return std::nullopt;
  }
  std::array<std::uint8_t, 16> payload{};
  std::copy_n(frame.begin() + 6, payload.size(), payload.begin());
  return from_bytes(payload, load_le<std::uint32_t>(frame.data() + 2),
                    time_ns);
}

std::string Capture::to_csv() const {
  std::string out = "Index, X, Y, Z, E\n";
  char buf[160];
  for (const auto& t : transactions) {
    std::snprintf(buf, sizeof(buf), "%u, %d, %d, %d, %d\n", t.index,
                  t.counts[0], t.counts[1], t.counts[2], t.counts[3]);
    out += buf;
  }
  // Footer: the exact end-of-print totals (captured at finalize, which
  // can postdate the last periodic transaction) and completion status,
  // so the 0%-margin final check survives the file round trip.
  std::snprintf(buf, sizeof(buf), "# final, %lld, %lld, %lld, %lld, %d\n",
                static_cast<long long>(final_counts[0]),
                static_cast<long long>(final_counts[1]),
                static_cast<long long>(final_counts[2]),
                static_cast<long long>(final_counts[3]),
                print_completed ? 1 : 0);
  out += buf;
  return out;
}

namespace {

/// Splits one CSV line at its commas into exactly N fields, each trimmed
/// of surrounding spaces; nullopt for any other field count.
template <std::size_t N>
std::optional<std::array<std::string_view, N>> split_fields(
    std::string_view line) {
  std::array<std::string_view, N> fields{};
  for (std::size_t n = 0; n < N; ++n) {
    const std::size_t comma = line.find(',');
    std::string_view field = line.substr(0, comma);
    while (!field.empty() && field.front() == ' ') field.remove_prefix(1);
    while (!field.empty() && field.back() == ' ') field.remove_suffix(1);
    fields[n] = field;
    if (comma == std::string_view::npos) {
      return n + 1 == N ? std::optional(fields) : std::nullopt;
    }
    line.remove_prefix(comma + 1);
  }
  return std::nullopt;  // a comma past the last field
}

/// One whole field as T (core::parse_int: no wrapping, no trailing bytes).
template <std::integral T>
T csv_field(std::string_view field, std::string_view line, const char* what) {
  const std::optional<T> v = parse_int<T>(field);
  if (!v) {
    throw Error(std::string("Capture::from_csv: malformed ") + what + ": " +
                std::string(line));
  }
  return *v;
}

}  // namespace

Capture Capture::from_csv(const std::string& text, std::string label) {
  constexpr std::string_view kFooter = "# final";
  Capture cap;
  cap.label = std::move(label);
  std::size_t pos = 0;
  bool header_skipped = false;
  bool has_footer = false;
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.front() == '#') {
      // Footer: "# final, x, y, z, e, completed"; other comments are
      // skipped.
      if (!line.starts_with(kFooter)) continue;
      const auto f = split_fields<6>(line);
      if (!f || (*f)[0] != kFooter || ((*f)[5] != "0" && (*f)[5] != "1") ||
          has_footer) {
        throw Error("Capture::from_csv: malformed footer: " +
                    std::string(line));
      }
      for (std::size_t i = 0; i < 4; ++i) {
        cap.final_counts[i] =
            csv_field<std::int64_t>((*f)[i + 1], line, "footer");
      }
      cap.print_completed = (*f)[5] == "1";
      has_footer = true;
      continue;
    }
    if (!header_skipped) {
      header_skipped = true;
      if (line.find("Index") != std::string_view::npos) continue;
    }
    const auto f = split_fields<5>(line);
    if (!f) {
      throw Error("Capture::from_csv: expected 5 fields in line: " +
                  std::string(line));
    }
    Transaction t;
    t.index = csv_field<std::uint32_t>((*f)[0], line, "line");
    for (std::size_t i = 0; i < 4; ++i) {
      t.counts[i] = csv_field<std::int32_t>((*f)[i + 1], line, "line");
    }
    cap.transactions.push_back(t);
  }
  // Legacy files without a footer: fall back to the last row's counts.
  if (!has_footer && !cap.transactions.empty()) {
    for (std::size_t i = 0; i < 4; ++i) {
      cap.final_counts[i] = cap.transactions.back().counts[i];
    }
    cap.print_completed = true;
  }
  return cap;
}

namespace {

constexpr std::string_view kBinMagic = "OFRC";

/// Serialized size of one transaction record: u32 index + 4 x i32
/// counts + u64 time_ns.  The count-prefix bound below divides by this,
/// so it must track the writer loop in to_binary().
constexpr std::size_t kBinRecordBytes = 28;

}  // namespace

std::vector<std::uint8_t> Capture::to_binary() const {
  std::vector<std::uint8_t> out;
  out.reserve(24 + label.size() + transactions.size() * kBinRecordBytes + 32);
  ByteWriter w(out);
  w.bytes(kBinMagic.data(), kBinMagic.size());
  w.u16(kBinaryVersion);
  w.u16(print_completed ? 1 : 0);
  w.str(label);
  w.u64(transactions.size());
  for (const Transaction& t : transactions) {
    w.u32(t.index);
    for (const std::int32_t c : t.counts) w.u32(static_cast<std::uint32_t>(c));
    w.u64(t.time_ns);
  }
  for (const std::int64_t c : final_counts) w.i64(c);
  return out;
}

Capture Capture::from_binary(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size, "Capture::from_binary");
  r.magic(kBinMagic, "not a capture file");
  const std::uint16_t version = r.u16();
  if (version != kBinaryVersion) {
    r.fail("unsupported format version " + std::to_string(version));
  }
  Capture cap;
  cap.print_completed = (r.u16() & 1) != 0;
  cap.label = r.str(ByteReader::kUncapped, "label");
  const std::size_t count = r.count(kBinRecordBytes, "transaction count");
  cap.transactions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Transaction t;
    t.index = r.u32();
    for (std::int32_t& c : t.counts) c = static_cast<std::int32_t>(r.u32());
    t.time_ns = r.u64();
    cap.transactions.push_back(t);
  }
  for (std::int64_t& c : cap.final_counts) c = r.i64();
  r.finish();
  return cap;
}

void Capture::save_binary(const std::string& path) const {
  write_file_atomic(path, to_binary(), "Capture::save_binary");
}

}  // namespace offramps::core
