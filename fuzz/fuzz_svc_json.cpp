// Fuzz target: the fleet-spec JSON reader.
//
// The fleet daemon parses operator-supplied spec files with this
// recursive-descent reader; depth bombs, bad escapes, truncated
// documents and trailing garbage must all be offramps::Error rejections
// (with the depth ceiling keeping the stack bounded), never UB.  Every
// string a document yields (member names too) must survive the repo's
// one JSON string writer, obs::append_json_string, and a second parse
// unchanged; a difference aborts.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "obs/json.hpp"
#include "sim/error.hpp"
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
  // Walk the accessor surface the fleet spec loader uses.
  (void)value.find("rigs");
  (void)value.number_or("workers", 0.0);
  (void)value.bool_or("strict", false);
  (void)value.string_or("label", "");
  walk(value);
  return 0;
}
