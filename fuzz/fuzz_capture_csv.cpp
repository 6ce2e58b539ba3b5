// Fuzz target: Capture::from_csv, the capture CSV reader.
//
// `offramps_cli detect`, `goldenfree` and `reconstruct` read capture
// CSVs from outside, so a hostile file must land on the documented
// offramps::Error path: a value its field cannot hold, a row without
// exactly five fields or a broken footer is rejected, never wrapped or
// read as zeros.  And what the reader accepts must be what it means: a
// decoded capture written back with to_csv() must read back equal.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/capture.hpp"
#include "sim/error.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using offramps::core::Capture;
  if (size > 1 << 20) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  Capture capture;
  try {
    capture = Capture::from_csv(text, "fuzz");
  } catch (const offramps::Error&) {
    return 0;  // malformed input, rejected by contract
  }
  const std::string csv = capture.to_csv();
  const Capture back = Capture::from_csv(csv, "fuzz");
  if (back.size() != capture.size() || back.to_csv() != csv) {
    std::fprintf(stderr, "fuzz_capture_csv: to_csv does not read back\n");
    std::abort();
  }
  return 0;
}
