// G-code command model.
//
// A parsed g-code line is a `Command`: a letter+number pair naming the
// operation (G1, M104, ...) plus a sequence of parameter words.  Parameter
// words may be valueless flags (e.g. the axis letters in "G28 X Y").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace offramps::gcode {

/// One parameter word, e.g. "X12.5" or the bare flag "X".
struct Param {
  char letter = '?';
  std::optional<double> value;

  friend bool operator==(const Param&, const Param&) = default;
};

/// One executable g-code command.
struct Command {
  char letter = '?';    // 'G', 'M', 'T', ...
  int code = -1;        // e.g. 1 for G1, 104 for M104
  std::vector<Param> params;
  std::string comment;  // trailing comment text, without the ';'

  /// True if this is the given command, e.g. is('G', 1).
  [[nodiscard]] bool is(char l, int c) const {
    return letter == l && code == c;
  }

  /// True when a parameter word with this letter is present (valued or not).
  [[nodiscard]] bool has(char l) const {
    for (const auto& p : params) {
      if (p.letter == l) return true;
    }
    return false;
  }

  /// Value of parameter `l`, if present with a value.
  [[nodiscard]] std::optional<double> get(char l) const {
    for (const auto& p : params) {
      if (p.letter == l && p.value.has_value()) return p.value;
    }
    return std::nullopt;
  }

  /// Value of parameter `l`, or `fallback` when absent/valueless.
  [[nodiscard]] double value_or(char l, double fallback) const {
    const auto v = get(l);
    return v.has_value() ? *v : fallback;
  }

  /// Sets (or adds) parameter `l` to `v`, preserving word order.
  void set(char l, double v) {
    for (auto& p : params) {
      if (p.letter == l) {
        p.value = v;
        return;
      }
    }
    params.push_back({l, v});
  }

  friend bool operator==(const Command&, const Command&) = default;
};

/// A whole g-code program in execution order.
using Program = std::vector<Command>;

}  // namespace offramps::gcode
