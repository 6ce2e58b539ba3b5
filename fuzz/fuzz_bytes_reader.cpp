// Fuzz target: core::ByteReader, the one bounded reader under the
// capture, session-wire, reference-cache and checkpoint decoders.
//
// The input is an op script followed by the bytes the script reads:
// byte 0 sets the script length (mod 33), the next bytes pick one reader
// call each (op % 12 selects the call, op / 12 its parameter), and the
// rest is the buffer.  Whatever the script asks, the reader must either
// throw offramps::Error or return what the buffer holds: a string no
// longer than its cap, a count whose records fit in the bytes left,
// exactly the bytes asked for, and a remaining() that never grows.
// Anything else aborts.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "core/bytes.hpp"
#include "sim/error.hpp"

namespace {

void check(bool ok) {
  if (!ok) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::size_t n_ops = std::min<std::size_t>(data[0] % 33, size - 1);
  const std::uint8_t* ops = data + 1;
  offramps::core::ByteReader r(ops + n_ops, size - 1 - n_ops, "fuzz");
  try {
    for (std::size_t i = 0; i < n_ops; ++i) {
      const std::size_t before = r.remaining();
      const std::size_t param = ops[i] / 12;  // 0..21
      switch (ops[i] % 12) {
        case 0: (void)r.u8(); break;
        case 1: (void)r.u16(); break;
        case 2: (void)r.u32(); break;
        case 3: (void)r.u64(); break;
        case 4: (void)r.i64(); break;
        case 5: (void)r.f64(); break;
        case 6: {
          const std::size_t cap = param == 21
                                      ? offramps::core::ByteReader::kUncapped
                                      : 8 * param;
          check(r.str(cap, "string").size() <= cap);
          break;
        }
        case 7: {
          const std::size_t n = r.count(param + 1, "u64 count");
          check(n <= r.remaining() / (param + 1));
          break;
        }
        case 8: {
          const std::size_t n = r.count<std::uint32_t>(param + 1, "u32 count");
          check(n <= r.remaining() / (param + 1));
          break;
        }
        case 9:
          (void)r.bytes(param);
          check(before - r.remaining() == param);
          break;
        case 10: r.magic("OFSS", "fuzz magic"); break;
        default: r.finish(); break;
      }
      check(r.remaining() <= before);
    }
  } catch (const offramps::Error&) {
    // Out of bytes or a rejected prefix, by contract.
  }
  return 0;
}
