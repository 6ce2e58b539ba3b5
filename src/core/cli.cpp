#include "core/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <iterator>

#include "core/bytes.hpp"
#include "obs/json.hpp"

namespace offramps::core::cli {

Parser& Parser::flag(std::string name, bool& dest, bool value) {
  this->value(std::move(name),
              [&dest, value](const std::string&) { dest = value; });
  entries_.back().valued = false;
  return *this;
}

Parser& Parser::number(std::string name, double& dest, double min,
                       double max) {
  return value(std::move(name), [&dest, min, max](const std::string& text) {
    const auto v = parse_double(text);
    if (!v || *v < min || *v > max) {
      throw Error("want a number in [" + obs::format_general(min) + ", " +
                  obs::format_general(max) + "]");
    }
    dest = *v;
  });
}

Parser& Parser::positive(std::string name, double& dest, double max) {
  return value(std::move(name), [&dest, max](const std::string& text) {
    const auto v = parse_double(text);
    if (!v || *v <= 0.0 || *v > max) {
      throw Error("want a number in (0, " + obs::format_general(max) + "]");
    }
    dest = *v;
  });
}

Parser& Parser::text(std::string name, std::string& dest) {
  return value(std::move(name), [&dest](const std::string& v) { dest = v; });
}

Parser& Parser::list(std::string name, std::vector<std::string>& dest) {
  return value(std::move(name),
               [&dest](const std::string& v) { dest.push_back(v); })
      .repeatable();
}

Parser& Parser::value(std::string name,
                      std::function<void(const std::string&)> set) {
  Entry& e = entries_.emplace_back();
  e.name = std::move(name);
  e.set = std::move(set);
  return *this;
}

Parser& Parser::alias(std::string alias) {
  entries_.back().alias = std::move(alias);
  return *this;
}

Parser& Parser::required() {
  entries_.back().required = true;
  return *this;
}

Parser& Parser::repeatable() {
  entries_.back().repeatable = true;
  return *this;
}

Parser::Entry* Parser::find(std::string_view name) {
  for (Entry& e : entries_) {
    if (e.is(name)) return &e;
  }
  return nullptr;
}

void Parser::fill(Entry& entry, const std::string& spelled,
                  const std::string& value) {
  try {
    entry.set(value);
  } catch (const std::exception& e) {
    throw UsageError("bad " + spelled + " value '" + value + "': " +
                     e.what());
  }
  entry.seen = true;
}

void Parser::parse(int argc, const char* const* argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    // A word: "", "-", or anything not spelled like a flag ("-3" is a
    // negative number for a positional slot to judge).
    if (arg.size() < 2 || arg[0] != '-' ||
        std::isdigit(static_cast<unsigned char>(arg[1])) != 0 ||
        arg[1] == '.') {
      Entry* slot = nullptr;
      for (Entry& e : entries_) {
        if (e.name[0] != '-' && (!e.seen || e.repeatable)) {
          slot = &e;
          break;
        }
      }
      if (slot == nullptr) {
        throw UsageError("unexpected argument '" + arg + "'");
      }
      fill(*slot, slot->name, arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    Entry* e = find(key);
    if (e == nullptr) throw UsageError("unknown flag '" + key + "'");
    if (e->seen && !e->repeatable) throw UsageError(key + " given twice");
    const bool next_is_value =
        i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0;
    if (!e->valued) {
      if (eq != std::string::npos) throw UsageError(key + " takes no value");
      fill(*e, key, {});
    } else if (eq != std::string::npos) {
      fill(*e, key, arg.substr(eq + 1));
    } else if (next_is_value) {
      fill(*e, key, argv[++i]);
    } else {
      throw UsageError(key + " wants a value");
    }
  }
  for (const Entry& e : entries_) {
    if (e.required && !e.seen) throw UsageError("missing " + e.name);
  }
}

void Parser::parse_or_exit(int argc, const char* const* argv, int first,
                           const char* usage) {
  try {
    parse(argc, argv, first);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), usage);
    std::exit(2);
  }
}

bool Parser::given(std::string_view name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [name](const Entry& e) { return e.seen && e.is(name); });
}

std::string read_text(const std::string& path, const char* context) {
  if (path == "-") {
    return {std::istreambuf_iterator<char>(std::cin),
            std::istreambuf_iterator<char>()};
  }
  const std::vector<std::uint8_t> bytes = read_file(path, context);
  return {bytes.begin(), bytes.end()};
}

void write_text(const std::string& path, std::string_view text,
                const char* context) {
  write_file_atomic(path, {text.begin(), text.end()}, context);
}

}  // namespace offramps::core::cli
