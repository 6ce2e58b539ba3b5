// Unit tests for the g-code parser.
#include <gtest/gtest.h>

#include "gcode/parser.hpp"
#include "sim/error.hpp"

namespace offramps::gcode {
namespace {

TEST(Parser, ParsesSimpleMove) {
  const auto cmd = parse_line("G1 X10.5 Y-3 E0.42 F1800");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_TRUE(cmd->is('G', 1));
  EXPECT_DOUBLE_EQ(*cmd->get('X'), 10.5);
  EXPECT_DOUBLE_EQ(*cmd->get('Y'), -3.0);
  EXPECT_DOUBLE_EQ(*cmd->get('E'), 0.42);
  EXPECT_DOUBLE_EQ(*cmd->get('F'), 1800.0);
}

TEST(Parser, LowercaseIsAccepted) {
  const auto cmd = parse_line("g1 x5 y6");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_TRUE(cmd->is('G', 1));
  EXPECT_DOUBLE_EQ(*cmd->get('X'), 5.0);
}

TEST(Parser, ValuelessFlagsAreKept) {
  const auto cmd = parse_line("G28 X Y");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_TRUE(cmd->has('X'));
  EXPECT_TRUE(cmd->has('Y'));
  EXPECT_FALSE(cmd->has('Z'));
  EXPECT_FALSE(cmd->get('X').has_value());  // flag, not a value
}

TEST(Parser, SemicolonCommentsAreStripped) {
  const auto cmd = parse_line("M104 S210 ; heat the hotend");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_TRUE(cmd->is('M', 104));
  EXPECT_EQ(cmd->comment, "heat the hotend");
}

TEST(Parser, ParenCommentsAreStripped) {
  const auto cmd = parse_line("G1 (move fast) X5");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd->get('X'), 5.0);
}

TEST(Parser, UnterminatedParenCommentThrows) {
  EXPECT_THROW(parse_line("G1 (oops X5"), Error);
}

TEST(Parser, CommentOnlyAndBlankLinesAreNullopt) {
  EXPECT_FALSE(parse_line("; just a comment").has_value());
  EXPECT_FALSE(parse_line("").has_value());
  EXPECT_FALSE(parse_line("   \t  ").has_value());
}

TEST(Parser, LineNumbersAreSkipped) {
  const auto cmd = parse_line("N42 G1 X5");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_TRUE(cmd->is('G', 1));
  EXPECT_FALSE(cmd->has('N'));
}

TEST(Parser, ValidChecksumAccepted) {
  const std::string body = "N3 G1 X7 ";
  const unsigned char cs = reprap_checksum(body);
  const auto cmd = parse_line(body + "*" + std::to_string(cs));
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd->get('X'), 7.0);
}

TEST(Parser, BadChecksumThrows) {
  EXPECT_THROW(parse_line("N3 G1 X7 *1"), Error);
}

TEST(Parser, MalformedNumberThrows) {
  EXPECT_THROW(parse_line("G1 X1.2.3"), Error);
  EXPECT_THROW(parse_line("G"), Error);
}

TEST(Parser, ParametersWithoutCommandThrow) {
  EXPECT_THROW(parse_line("X10 Y20"), Error);
}

TEST(Parser, NegativeAndDecimalCodes) {
  const auto cmd = parse_line("M109 S210.5");
  ASSERT_TRUE(cmd.has_value());
  EXPECT_DOUBLE_EQ(*cmd->get('S'), 210.5);
}

TEST(Parser, ProgramSplitsOnNewlines) {
  const Program p = parse_program("G28\n; comment\nG1 X1\n\nG1 X2\n");
  ASSERT_EQ(p.size(), 3u);
  EXPECT_TRUE(p[0].is('G', 28));
  EXPECT_DOUBLE_EQ(*p[2].get('X'), 2.0);
}

TEST(Parser, WindowsLineEndings) {
  const Program p = parse_program("G28\r\nG1 X1\r\n");
  ASSERT_EQ(p.size(), 2u);
  EXPECT_TRUE(p[1].is('G', 1));
}

TEST(Command, SetAndEraseParams) {
  Command c;
  c.letter = 'G';
  c.code = 1;
  c.set('X', 5.0);
  c.set('X', 6.0);
  EXPECT_DOUBLE_EQ(*c.get('X'), 6.0);
  EXPECT_EQ(c.params.size(), 1u);
}

TEST(Command, ValueOrFallsBack) {
  Command c;
  c.letter = 'M';
  c.code = 106;
  EXPECT_DOUBLE_EQ(c.value_or('S', 255.0), 255.0);
  c.set('S', 128.0);
  EXPECT_DOUBLE_EQ(c.value_or('S', 255.0), 128.0);
}

}  // namespace
}  // namespace offramps::gcode
