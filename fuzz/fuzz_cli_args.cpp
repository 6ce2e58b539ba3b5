// Fuzz target: core::cli::Parser, the one flag parser under every CLI.
//
// The input is an argv: NUL-separated words, at most 64 of them.  They
// are parsed against a table that holds every kind of entry - a switch
// with an alias, integer counts of three widths (one signed), a number,
// a positive number, text, a repeatable list, a converter, and a
// positional slot beside a positional list.  A cli::UsageError is the
// expected way to reject a command line; any other exception escapes and
// aborts, and so does any bound value outside its declared range, even
// after a rejected command line.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/cli.hpp"

namespace {

void check(bool ok) {
  if (!ok) std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  constexpr std::size_t kMaxWords = 64;
  std::vector<std::string> words(1);
  for (std::size_t i = 0; i < size; ++i) {
    if (data[i] != 0) {
      words.back() += static_cast<char>(data[i]);
    } else if (words.size() == kMaxWords) {
      break;
    } else {
      words.emplace_back();
    }
  }
  std::vector<const char*> argv{"fuzz_cli_args"};
  for (const std::string& w : words) argv.push_back(w.c_str());

  bool on = false;
  std::uint32_t count = 7;
  std::int64_t offset = 0;
  std::size_t jobs = 0;
  double margin = 5.0;
  double size_mm = 10.0;
  std::string out;
  std::vector<std::string> chaos;
  int route = 0;
  double factor = 0.5;
  std::vector<std::string> files;

  offramps::core::cli::Parser p;
  p.flag("--on", on).alias("-o")
      .count("--count", count, 1, 1000)
      .count("--offset", offset, -5, 5)
      .count("--jobs", jobs, 1, 1'000'000).alias("-j")
      .number("--margin", margin, 0.0, 100.0)
      .positive("--size", size_mm, 210.0)
      .text("--out", out)
      .list("--chaos", chaos)
      .value("--route",
             [&route](const std::string& v) {
               if (v != "mitm" && v != "direct") {
                 throw offramps::Error("want mitm|direct");
               }
               route = v == "mitm" ? 1 : 2;
             })
      .positive("FACTOR", factor, 1.0)
      .list("FILE", files);
  try {
    p.parse(static_cast<int>(argv.size()), argv.data());
  } catch (const offramps::core::cli::UsageError&) {
    // A rejected command line, by contract.
  }

  check(count >= 1 && count <= 1000);
  check(offset >= -5 && offset <= 5);
  check(jobs <= 1'000'000 && (jobs >= 1) == p.given("--jobs"));
  check(std::isfinite(margin) && margin >= 0.0 && margin <= 100.0);
  check(std::isfinite(size_mm) && size_mm > 0.0 && size_mm <= 210.0);
  check(std::isfinite(factor) && factor > 0.0 && factor <= 1.0);
  check(route >= 0 && route <= 2);
  check(on == p.given("--on"));
  check(chaos.size() + files.size() <= words.size());
  return 0;
}
