// Fuzz target: core::wire::FrameReader, the session-stream parser.
//
// The fleet daemon feeds this reader bytes straight off a Unix socket
// or stdin pipe, i.e. from arbitrary (possibly hostile) rig clients,
// and replay feeds it files from disk.  Bad magic, lying length
// prefixes, truncated frames, mid-frame garbage and concatenation
// boundaries must all land on the resync / failed-session paths - never
// on an out-of-bounds read, unbounded buffering, or an allocation bomb.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/session_wire.hpp"

namespace {

void touch(const offramps::core::wire::Frame& frame) {
  using offramps::core::wire::FrameType;
  switch (frame.type) {
    case FrameType::kHello:
      (void)frame.hello.name.size();
      (void)frame.hello.sabotage.size();
      (void)frame.hello.chaos.size();
      break;
    case FrameType::kTxn:
      (void)frame.txn;
      break;
    case FrameType::kPower:
      (void)(frame.power_t_s + frame.power_watts);
      break;
    case FrameType::kSample:
      (void)(frame.sample_kind + frame.sample_t_s + frame.sample_value);
      break;
    case FrameType::kFinish:
      (void)frame.finish.size();
      break;
    case FrameType::kEnd:
      (void)frame.end.final_counts[0];
      break;
    case FrameType::kSlot:
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 1 << 20) return 0;
  using offramps::core::wire::Frame;
  using offramps::core::wire::FrameReader;

  // Whole-buffer pass, following the concatenated-stream contract: a
  // short return at kEnd hands the leftover to a fresh reader.
  {
    std::size_t off = 0;
    for (int streams = 0; streams < 8 && off < size; ++streams) {
      FrameReader reader;
      const std::size_t used =
          reader.feed(data + off, size - off, touch);
      reader.close();
      (void)reader.error();
      (void)reader.resyncs();
      (void)reader.corrupt_txns();
      if (used == 0) break;
      off += used;
    }
  }

  // Incremental pass: the chunk size comes from the input itself so the
  // corpus explores frame-boundary splits; state must be identical to
  // the whole-buffer parse.
  {
    FrameReader reader;
    const std::size_t chunk = size == 0 ? 1 : (data[0] % 37) + 1;
    std::size_t off = 0;
    while (off < size) {
      const std::size_t n = std::min(chunk, size - off);
      const std::size_t used = reader.feed(data + off, n, touch);
      off += used;
      if (used < n) break;  // ended/failed: leftover is a later stream
    }
    reader.close();
    (void)reader.failed();
  }
  return 0;
}
