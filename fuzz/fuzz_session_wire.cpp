// Fuzz target: core::wire::FrameReader, the session-stream parser.
//
// The fleet daemon feeds this reader bytes straight off a Unix socket
// or stdin pipe, i.e. from arbitrary (possibly hostile) rig clients,
// and replay feeds it files from disk.  Bad magic, lying length
// prefixes, truncated frames, mid-frame garbage and concatenation
// boundaries must all land on the resync / failed-session paths - never
// on an out-of-bounds read, unbounded buffering, or an allocation bomb.
// And the parse must not depend on how the bytes were cut into chunks:
// the first stream fed in input-chosen chunks must yield the same
// frames, counters and end state as the whole buffer fed at once.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/bytes.hpp"
#include "core/session_wire.hpp"

namespace {

using offramps::core::wire::Frame;
using offramps::core::wire::FrameReader;
using offramps::core::wire::FrameType;

/// A frame's type and the fields that type uses, in byte-codec form (so
/// doubles compare by bit pattern, NaNs included).
std::vector<std::uint8_t> fields(const Frame& frame) {
  std::vector<std::uint8_t> out;
  offramps::core::ByteWriter w(out);
  w.u8(static_cast<std::uint8_t>(frame.type));
  switch (frame.type) {
    case FrameType::kHello:
      w.u32(frame.hello.rig_index);
      w.u64(frame.hello.seed);
      w.f64(frame.hello.cube_mm);
      w.f64(frame.hello.height_mm);
      w.str(frame.hello.name);
      w.str(frame.hello.sabotage);
      w.str(frame.hello.chaos);
      break;
    case FrameType::kTxn:
      w.u32(frame.txn.index);
      for (const std::int32_t c : frame.txn.counts) {
        w.u32(static_cast<std::uint32_t>(c));
      }
      w.u64(frame.txn.time_ns);
      break;
    case FrameType::kPower:
      w.f64(frame.power_t_s);
      w.f64(frame.power_watts);
      break;
    case FrameType::kSample:
      w.u8(frame.sample_kind);
      w.f64(frame.sample_t_s);
      w.f64(frame.sample_value);
      break;
    case FrameType::kFinish:
      w.bytes(frame.finish.data(), frame.finish.size());
      break;
    case FrameType::kEnd:
      w.u8(frame.end.print_finished ? 1 : 0);
      w.u8(frame.end.safe_stopped ? 1 : 0);
      w.f64(frame.end.sim_seconds);
      for (const std::int64_t c : frame.end.final_counts) w.i64(c);
      break;
    case FrameType::kSlot:
      break;
  }
  return out;
}

/// Everything one stream's parse yields.
struct Parse {
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t consumed = 0;
  bool ended = false;
  bool failed = false;
  std::string error;
  std::uint64_t resyncs = 0;
  std::uint64_t corrupt_txns = 0;

  bool operator==(const Parse&) const = default;
};

/// Parses the first stream of `size` bytes at `data`, fed `chunk` bytes
/// at a time as the feed contract says: a short return ends the stream,
/// and its leftover belongs to the next one.
Parse parse_stream(const std::uint8_t* data, std::size_t size,
                   std::size_t chunk) {
  Parse out;
  FrameReader reader;
  const auto record = [&out](const Frame& f) {
    out.frames.push_back(fields(f));
  };
  while (out.consumed < size) {
    const std::size_t n = std::min(chunk, size - out.consumed);
    const std::size_t used = reader.feed(data + out.consumed, n, record);
    out.consumed += used;
    if (used < n) break;
  }
  reader.close();
  out.ended = reader.ended();
  out.failed = reader.failed();
  out.error = reader.error();
  out.resyncs = reader.resyncs();
  out.corrupt_txns = reader.corrupt_txns();
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 1 << 20) return 0;

  // Incremental pass: the chunk size comes from the input itself so the
  // corpus explores frame-boundary splits.
  const Parse whole = parse_stream(data, size, size);
  const std::size_t chunk = size == 0 ? 1 : (data[0] % 37) + 1;
  if (!(parse_stream(data, size, chunk) == whole)) {
    std::fprintf(stderr,
                 "fuzz_session_wire: a %zu-byte chunked parse differs from "
                 "the whole-buffer parse\n",
                 chunk);
    std::abort();
  }

  // The streams concatenated after the first, each handed to a fresh
  // reader.
  std::size_t off = whole.consumed;
  for (int streams = 1; streams < 8 && off > 0 && off < size; ++streams) {
    const std::size_t used = parse_stream(data + off, size - off, size - off)
                                 .consumed;
    if (used == 0) break;
    off += used;
  }
  return 0;
}
