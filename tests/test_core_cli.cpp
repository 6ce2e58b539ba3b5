// core::cli: the one flag parser under every CLI in the suite, and the
// read_text / write_text file helpers beside it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/cli.hpp"

namespace offramps::core {
namespace {

/// Runs `p` over `words` (argv[0] is supplied).
void parse(cli::Parser& p, const std::vector<std::string>& words) {
  std::vector<const char*> argv{"tool"};
  for (const std::string& w : words) argv.push_back(w.c_str());
  p.parse(static_cast<int>(argv.size()), argv.data());
}

/// The usage error `words` raise, or "" when they parse.
std::string usage_error(cli::Parser& p,
                        const std::vector<std::string>& words) {
  try {
    parse(p, words);
  } catch (const cli::UsageError& e) {
    return e.what();
  }
  return "";
}

TEST(ParseInt, LandsInTheDestinationTypeWithoutWrapping) {
  EXPECT_EQ(parse_int<std::uint32_t>("4294967295"), 4294967295u);
  EXPECT_FALSE(parse_int<std::uint32_t>("4294967296"));
  EXPECT_FALSE(parse_int<std::uint64_t>("-1"));
  EXPECT_EQ(parse_int<int>("-7"), -7);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            UINT64_MAX);
  for (const char* bad : {"", " 1", "1 ", "1x", "+1", "0x10", "1.0"}) {
    EXPECT_FALSE(parse_int<int>(bad)) << "'" << bad << "'";
  }
}

TEST(Cli, EveryValuedFlagTakesBothSpellings) {
  std::size_t n = 0;
  double x = 0.0;
  std::string s;
  std::vector<std::string> list;
  cli::Parser p;
  p.count("--n", n, 1, 10).number("--x", x, -1.0, 1.0).text("--s", s)
      .list("--l", list);
  parse(p, {"--n", "3", "--x=-0.5", "--s=a=b", "--l", "u", "--l=v"});
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(x, -0.5);
  EXPECT_EQ(s, "a=b");  // only the first '=' splits
  EXPECT_EQ(list, (std::vector<std::string>{"u", "v"}));
}

TEST(Cli, UnsetFlagsKeepTheirDefaults) {
  std::size_t n = 7;
  bool on = false;
  std::string s = "default";
  cli::Parser p;
  p.count("--n", n, 1, 10).flag("--on", on).text("--s", s);
  parse(p, {});
  EXPECT_EQ(n, 7u);
  EXPECT_FALSE(on);
  EXPECT_EQ(s, "default");
  EXPECT_FALSE(p.given("--n"));
}

TEST(Cli, SwitchesAliasesAndGiven) {
  bool help = false;
  bool safe = true;
  std::size_t jobs = 0;
  cli::Parser p;
  p.flag("--help", help).alias("-h")
      .flag("--no-safe", safe, false)
      .count("--jobs", jobs, 1, 64).alias("-j");
  parse(p, {"-h", "--no-safe", "-j", "4"});
  EXPECT_TRUE(help);
  EXPECT_FALSE(safe);
  EXPECT_EQ(jobs, 4u);
  EXPECT_TRUE(p.given("--jobs"));
  EXPECT_TRUE(p.given("-j"));
  EXPECT_TRUE(p.given("--help"));
  EXPECT_EQ(usage_error(p, {"--help"}), "--help given twice");
  cli::Parser q;
  q.flag("--help", help);
  EXPECT_EQ(usage_error(q, {"--help=1"}), "--help takes no value");
}

TEST(Cli, UnknownFlagsAreNamed) {
  bool on = false;
  cli::Parser p;
  p.flag("--on", on);
  EXPECT_EQ(usage_error(p, {"--of"}), "unknown flag '--of'");
  EXPECT_EQ(usage_error(p, {"--bogus=3"}), "unknown flag '--bogus'");
  EXPECT_EQ(usage_error(p, {"-x"}), "unknown flag '-x'");
}

TEST(Cli, MissingValuesAreNamed) {
  std::string capture;
  std::string vcd;
  cli::Parser p;
  p.text("--capture", capture).text("--vcd", vcd);
  EXPECT_EQ(usage_error(p, {"--capture"}), "--capture wants a value");
  // The next word is a flag, not a file named "--vcd".
  EXPECT_EQ(usage_error(p, {"--capture", "--vcd", "w.vcd"}),
            "--capture wants a value");
  EXPECT_TRUE(capture.empty());
}

TEST(Cli, DashAndNegativeNumbersAreValues) {
  std::string path;
  int offset = 0;
  cli::Parser p;
  p.text("--in", path).count("--offset", offset, -10, 10);
  parse(p, {"--in", "-", "--offset", "-3"});
  EXPECT_EQ(path, "-");
  EXPECT_EQ(offset, -3);
}

TEST(Cli, CountsRejectGarbageSignsOverflowAndRange) {
  std::uint32_t slack = 0;
  cli::Parser p;
  p.count("--slack", slack, 0);
  for (const char* bad : {"-1", "4294967296", "1x", "", " 1", "2.5"}) {
    const std::string error = usage_error(p, {"--slack", bad});
    EXPECT_NE(error.find("bad --slack value '"), std::string::npos)
        << "'" << bad << "' -> " << error;
    EXPECT_NE(error.find("want an integer in [0, 4294967295]"),
              std::string::npos)
        << error;
  }
  std::size_t jobs = 0;
  cli::Parser q;
  q.count("--jobs", jobs, 1, 8);
  EXPECT_EQ(usage_error(q, {"--jobs=0"}),
            "bad --jobs value '0': want an integer in [1, 8]");
  EXPECT_EQ(usage_error(q, {"--jobs", "9"}),
            "bad --jobs value '9': want an integer in [1, 8]");
  EXPECT_EQ(jobs, 0u);
}

TEST(Cli, NumbersMustBeFiniteAndInRange) {
  double margin = 5.0;
  double size = 10.0;
  cli::Parser p;
  p.number("--margin", margin, 0.0, 100.0).positive("--size", size, 210.0);
  for (const char* bad : {"five", "nan", "inf", "-inf", "1e999", "5%",
                          "0,5", "-0.1", "100.5"}) {
    EXPECT_NE(usage_error(p, {"--margin", bad}), "") << bad;
  }
  EXPECT_EQ(usage_error(p, {"--margin", "five"}),
            "bad --margin value 'five': want a number in [0, 100]");
  EXPECT_EQ(usage_error(p, {"--size=0"}),
            "bad --size value '0': want a number in (0, 210]");
  EXPECT_EQ(margin, 5.0);
  parse(p, {"--margin", "0", "--size", "210"});
  EXPECT_EQ(margin, 0.0);
  EXPECT_EQ(size, 210.0);
}

TEST(Cli, OnlyRepeatableFlagsMayRepeat) {
  std::string out;
  std::vector<std::string> chaos;
  cli::Parser p;
  p.text("--out", out).list("--chaos", chaos);
  EXPECT_EQ(usage_error(p, {"--out", "a", "--out", "b"}),
            "--out given twice");
  cli::Parser q;
  q.text("--out", out).list("--chaos", chaos);
  parse(q, {"--chaos", "1=a", "--chaos", "2=b", "--chaos", "3=c"});
  EXPECT_EQ(chaos.size(), 3u);
}

TEST(Cli, ConverterErrorsNameTheFlagAndValue) {
  int route = 0;
  cli::Parser p;
  p.value("--route", [&route](const std::string& v) {
    if (v != "mitm") throw Error("want mitm");
    route = 1;
  });
  EXPECT_EQ(usage_error(p, {"--route", "bogus"}),
            "bad --route value 'bogus': want mitm");
  parse(p, {"--route=mitm"});
  EXPECT_EQ(route, 1);
}

TEST(Cli, PositionalsFillTheirSlotsInOrder) {
  double factor = 0.0;
  std::string file = "-";
  cli::Parser p;
  p.positive("FACTOR", factor, 1.0).required().text("FILE", file);
  parse(p, {"0.5", "part.gcode"});
  EXPECT_EQ(factor, 0.5);
  EXPECT_EQ(file, "part.gcode");

  cli::Parser q;
  q.positive("FACTOR", factor, 1.0).required().text("FILE", file);
  EXPECT_EQ(usage_error(q, {}), "missing FACTOR");
  cli::Parser r;
  r.positive("FACTOR", factor, 1.0).required().text("FILE", file);
  EXPECT_EQ(usage_error(r, {"0.5", "a", "b"}), "unexpected argument 'b'");
  cli::Parser s;
  s.positive("FACTOR", factor, 1.0).required();
  EXPECT_EQ(usage_error(s, {"0.5junk"}),
            "bad FACTOR value '0.5junk': want a number in (0, 1]");
  cli::Parser t;
  std::uint32_t n = 0;
  t.count("N", n, 1).required();
  EXPECT_EQ(usage_error(t, {"-3"}),
            "bad N value '-3': want an integer in [1, 4294967295]");
}

TEST(Cli, PositionalListTakesEveryRemainingWord) {
  std::string sock;
  std::vector<std::string> files;
  cli::Parser p;
  p.text("--join", sock).list("FILE", files);
  parse(p, {"a.ofs", "--join", "s.sock", "-", "b.ofs"});
  EXPECT_EQ(files, (std::vector<std::string>{"a.ofs", "-", "b.ofs"}));
  EXPECT_EQ(sock, "s.sock");
}

TEST(Cli, RequiredFlagsAreNamed) {
  std::string golden;
  cli::Parser p;
  p.text("--golden", golden).required();
  EXPECT_EQ(usage_error(p, {}), "missing --golden");
}

TEST(Cli, ParseStartsAfterTheModeWord) {
  std::uint64_t seed = 1;
  cli::Parser p;
  p.count("--seed", seed, 0);
  const char* argv[] = {"offramps_cli", "print", "--seed", "7"};
  p.parse(4, argv, 2);
  EXPECT_EQ(seed, 7u);
}

/// parse_or_exit over a command line with one unknown flag.
void parse_unknown_flag_or_exit() {
  bool on = false;
  cli::Parser p;
  p.flag("--on", on);
  const char* argv[] = {"tool", "--of"};
  p.parse_or_exit(2, argv, 1, "usage: tool [--on]\n");
}

TEST(CliDeathTest, ParseOrExitExitsTwoWithTheMessageAndUsage) {
  EXPECT_EXIT(parse_unknown_flag_or_exit(), ::testing::ExitedWithCode(2),
              "unknown flag '--of'\nusage: tool");
}

TEST(CliFiles, ReadTextAndWriteTextRoundTripAndNameThePath) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "offramps_cli_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "out.txt").string();
  const std::string text = std::string("line\n\0binary", 12);
  cli::write_text(path, text, "test");
  EXPECT_EQ(cli::read_text(path, "test"), text);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const std::string missing = (dir / "no" / "such.txt").string();
  try {
    (void)cli::read_text(missing, "test");
    FAIL() << "read_text of a missing file did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
  try {
    cli::write_text(missing, "x", "test");
    FAIL() << "write_text into a missing directory did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace offramps::core
