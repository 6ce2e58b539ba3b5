// The one command-line boundary.  Every tool in the suite parses its argv
// through a cli::Parser: a table of the tool's flags and positionals,
// each bound to the variable it fills.
//
// Spellings: `--flag VALUE` and `--flag=VALUE` for every valued flag, an
// optional alias (`-j` for `--jobs`), and bare words, `-` (stdin) or
// negative numbers for positionals, which fill the declared positional
// slots in order.  A VALUE in its own word may not begin with "--", so
// `--capture --vcd w.vcd` is a missing value rather than a file named
// "--vcd" (`--flag=--x` still passes one).  Integers parse straight into
// the bound type, so a sign on an unsigned type or an overflow is
// rejected, never wrapped; numbers must be finite; both must lie in
// their declared range.
//
// Everything else throws UsageError, whose message names the flag: an
// unknown flag, a valued flag with no value, a malformed or out-of-range
// value, a second copy of a flag that is not repeatable, an extra
// positional or a missing required one.  The tool-suite contract turns
// that into exit 2 before anything is simulated or written
// (parse_or_exit).
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/strict_parse.hpp"
#include "sim/error.hpp"

namespace offramps::core::cli {

/// A command line the tool does not understand.
class UsageError : public Error {
 public:
  using Error::Error;
};

/// A tool's flags and positionals.  A name that begins with '-' is a
/// flag; any other name is a positional slot.  The bound variables must
/// outlive parse(), and keep their values unless their flag is given.
class Parser {
 public:
  /// A switch: present sets `dest` to `value`.
  Parser& flag(std::string name, bool& dest, bool value = true);

  /// An integer in [min, max].
  template <std::integral T>
  Parser& count(std::string name, T& dest, std::type_identity_t<T> min,
                std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    return value(std::move(name), [&dest, min, max](const std::string& text) {
      const auto v = parse_int<T>(text);
      if (!v || *v < min || *v > max) {
        throw Error("want an integer in [" + std::to_string(min) + ", " +
                    std::to_string(max) + "]");
      }
      dest = *v;
    });
  }

  /// A finite number in [min, max].
  Parser& number(std::string name, double& dest, double min, double max);

  /// A finite number in (0, max]: a size or a factor.
  Parser& positive(std::string name, double& dest, double max);

  /// Any text.
  Parser& text(std::string name, std::string& dest);

  /// Repeatable text: every occurrence appends.  A positional list takes
  /// every remaining word.
  Parser& list(std::string name, std::vector<std::string>& dest);

  /// A value `set` converts, throwing offramps::Error("want ...") when it
  /// cannot; the parser adds the flag and the value to the message.
  Parser& value(std::string name, std::function<void(const std::string&)> set);

  /// Another spelling of the entry added last.
  Parser& alias(std::string alias);

  /// Makes the entry added last mandatory.
  Parser& required();

  /// Lets the entry added last be given more than once.
  Parser& repeatable();

  /// Fills the bound variables from argv[first, argc).  Throws UsageError.
  void parse(int argc, const char* const* argv, int first = 1);

  /// parse(), except that a usage error prints its message and `usage` to
  /// stderr and exits 2.
  void parse_or_exit(int argc, const char* const* argv, int first,
                     const char* usage);

  /// True when the entry `name` (or its alias) was given.
  [[nodiscard]] bool given(std::string_view name) const;

 private:
  struct Entry {
    std::string name;
    std::string alias;
    std::function<void(const std::string&)> set;
    bool valued = true;
    bool repeatable = false;
    bool required = false;
    bool seen = false;

    [[nodiscard]] bool is(std::string_view spelled) const {
      return name == spelled || (!alias.empty() && alias == spelled);
    }
  };

  Entry* find(std::string_view name);
  void fill(Entry& entry, const std::string& spelled,
            const std::string& value);

  std::vector<Entry> entries_;
};

/// The whole of `path` as text ("-" reads stdin).  Throws
/// offramps::Error("<context>: cannot open <path>") via core::read_file.
[[nodiscard]] std::string read_text(const std::string& path,
                                    const char* context);

/// Writes `text` to `path` through core::write_file_atomic.  Throws
/// offramps::Error("<context>: ...") naming the path.
void write_text(const std::string& path, std::string_view text,
                const char* context);

}  // namespace offramps::core::cli
