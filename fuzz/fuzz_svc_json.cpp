// Fuzz target: the fleet-spec JSON reader and the spec reader on top.
//
// The fleet daemon parses operator-supplied spec files with this
// recursive-descent reader; depth bombs, bad escapes, truncated
// documents and trailing garbage must all be offramps::Error rejections
// (with the depth ceiling keeping the stack bounded), never UB.  Every
// string a document yields (member names too) must survive the repo's
// one JSON string writer, obs::append_json_string, and a second parse
// unchanged; a difference aborts.  Every document that parses then goes
// through svc::Fleet::specs_from_json, which must return or throw
// offramps::Error (an unknown or mistyped key, a value out of range);
// any other exception aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "obs/json.hpp"
#include "sim/error.hpp"
#include "svc/fleet.hpp"
#include "svc/json.hpp"

namespace {

void check_round_trip(const std::string& s) {
  std::string doc;
  offramps::obs::append_json_string(doc, s);
  try {
    if (offramps::svc::json::parse(doc).string == s) return;
  } catch (const offramps::Error&) {
  }
  std::abort();
}

void walk(const offramps::svc::json::Value& v) {
  if (v.kind == offramps::svc::json::Value::Kind::kString) {
    check_round_trip(v.string);
  }
  for (const auto& item : v.items) walk(item);
  for (const auto& [key, value] : v.fields) {
    check_round_trip(key);
    walk(value);
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > 1 << 18) return 0;
  const std::string text(reinterpret_cast<const char*>(data), size);
  offramps::svc::json::Value value;
  try {
    value = offramps::svc::json::parse(text);
  } catch (const offramps::Error&) {
    return 0;  // Malformed document, rejected by contract.
  }
  walk(value);
  try {
    offramps::svc::FleetOptions options;
    (void)offramps::svc::Fleet::specs_from_json(text, options);
  } catch (const offramps::Error&) {
    // A spec error, rejected by contract.
  } catch (...) {
    std::abort();
  }
  return 0;
}
