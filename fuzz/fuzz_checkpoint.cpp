// Fuzz target: svc::Checkpoint::from_binary, the campaign checkpoint
// reader.
//
// `offramps_fleetd --resume` loads whatever file it is pointed at: a
// checkpoint torn by a crash outside the temp+rename discipline, written
// by another build, or edited by hand.  Every malformed input - bad
// magic, a version skew, lying reference or record counts, truncated
// reference bodies, out-of-range enum bytes, trailing garbage - must be
// rejected with offramps::Error, never over-read or over-allocate.
#include <cstddef>
#include <cstdint>

#include "sim/error.hpp"
#include "svc/checkpoint.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 1 << 20) return 0;
  try {
    const offramps::svc::Checkpoint ck =
        offramps::svc::Checkpoint::from_binary(data, size);
    for (const offramps::svc::RefEntry& ref : ck.references) {
      (void)(ref.golden.size() + ref.golden_power.size() +
             ref.golden_acoustic.size() + ref.golden_vibration.size());
    }
    for (const auto& [index, outcome] : ck.done) {
      (void)(index + outcome.detector.channels.size());
    }
  } catch (const offramps::Error&) {
    // Malformed checkpoint, rejected by contract.
  }
  return 0;
}
