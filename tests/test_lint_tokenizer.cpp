// Unit tests for the ctesim-lint single-pass tokenizer and the layering
// checker (tools/ctesim_lint). The tokenizer is the foundation every lint
// rule stands on, so the cases the old masker got wrong — raw strings,
// line-spliced comments, digit separators, literals containing "==" — are
// pinned here explicitly.
#include "rules.h"
#include "tokenizer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lint = ctesim::lint;

namespace {

std::vector<lint::Token> of_kind(const std::vector<lint::Token>& toks,
                                 lint::Tok kind) {
  std::vector<lint::Token> out;
  for (const auto& t : toks) {
    if (t.kind == kind) out.push_back(t);
  }
  return out;
}

bool has_ident(const std::vector<lint::Token>& toks, const std::string& s) {
  for (const auto& t : toks) {
    if (t.kind == lint::Tok::kIdentifier && t.text == s) return true;
  }
  return false;
}

TEST(LintTokenizer, CommentsProduceNoTokens) {
  const auto toks = lint::tokenize(
      "// line comment with rand() and x == 1.5\n"
      "/* block comment\n   spanning lines == 2.5 */\n"
      "int x;\n");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[2].text, ";");
  EXPECT_EQ(toks[0].line, 4);  // the block comment spans lines 2-3
}

TEST(LintTokenizer, LineSplicedCommentConsumesNextPhysicalLine) {
  // The backslash-newline continues the line comment, so rand() on the
  // second physical line is still commentary — the masker-era scanner
  // got exactly this wrong.
  const auto toks = lint::tokenize(
      "// continued \\\n rand(); x == 1.5;\nint y;\n");
  ASSERT_EQ(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[0].line, 3);
}

TEST(LintTokenizer, SpliceInsideIdentifierAndPreprocessor) {
  const auto toks = lint::tokenize("int val\\\nue = 1;\n#def\\\nine FOO 2\n");
  EXPECT_TRUE(has_ident(toks, "value"));
  EXPECT_TRUE(has_ident(toks, "define"));
  // Physical line numbers survive the splice.
  for (const auto& t : toks) {
    if (t.text == "define") {
      EXPECT_EQ(t.line, 3);
    }
  }
}

TEST(LintTokenizer, StringLiteralsSwallowOperators) {
  const auto toks =
      lint::tokenize("const char* s = \"a == 1.5 // not a comment\";\n");
  const auto strings = of_kind(toks, lint::Tok::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "a == 1.5 // not a comment");
  // No kNumber or "==" punct leaked out of the literal.
  EXPECT_TRUE(of_kind(toks, lint::Tok::kNumber).empty());
  for (const auto& t : of_kind(toks, lint::Tok::kPunct)) {
    EXPECT_NE(t.text, "==");
  }
}

TEST(LintTokenizer, RawStringsAreVerbatim) {
  // )x" inside must not close the literal; the )json" delimiter does.
  const auto toks = lint::tokenize(
      "auto j = R\"json({\"eq\": \"x == 1.5\", \"paren\": \")x\\\"\"})json\";\n"
      "int after;\n");
  const auto strings = of_kind(toks, lint::Tok::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_NE(strings[0].text.find("x == 1.5"), std::string::npos);
  EXPECT_TRUE(has_ident(toks, "after"));
  for (const auto& t : of_kind(toks, lint::Tok::kPunct)) {
    EXPECT_NE(t.text, "==");
  }
}

TEST(LintTokenizer, RawStringLineNumbersAdvance) {
  const auto toks =
      lint::tokenize("auto s = R\"(line1\nline2\nline3)\";\nint z;\n");
  for (const auto& t : toks) {
    if (t.text == "z") {
      EXPECT_EQ(t.line, 4);
    }
  }
}

TEST(LintTokenizer, EncodingPrefixesAreStrings) {
  const auto toks = lint::tokenize(
      "auto a = u8\"x == 1\"; auto b = L\"y == 2\"; auto c = u\"z\";\n");
  EXPECT_EQ(of_kind(toks, lint::Tok::kString).size(), 3u);
  EXPECT_TRUE(of_kind(toks, lint::Tok::kNumber).empty());
}

TEST(LintTokenizer, DigitSeparatorsStayOneNumber) {
  // The masker treated the ' in 1'000 as opening a char literal and
  // swallowed the rest of the line.
  const auto toks = lint::tokenize("long n = 1'000'000; int m = 2;\n");
  const auto nums = of_kind(toks, lint::Tok::kNumber);
  ASSERT_EQ(nums.size(), 2u);
  EXPECT_EQ(nums[0].text, "1'000'000");
  EXPECT_EQ(nums[1].text, "2");
}

TEST(LintTokenizer, FloatLiteralClassification) {
  EXPECT_TRUE(lint::is_float_literal("1.5"));
  EXPECT_TRUE(lint::is_float_literal(".5"));
  EXPECT_TRUE(lint::is_float_literal("1."));
  EXPECT_TRUE(lint::is_float_literal("1e-9"));
  EXPECT_TRUE(lint::is_float_literal("0x1.8p1"));
  EXPECT_TRUE(lint::is_float_literal("0x1p3"));
  EXPECT_FALSE(lint::is_float_literal("42"));
  EXPECT_FALSE(lint::is_float_literal("0x2a"));
  EXPECT_FALSE(lint::is_float_literal("1'000'000"));
}

TEST(LintTokenizer, ZeroLiteralExemption) {
  EXPECT_TRUE(lint::is_zero_literal("0.0"));
  EXPECT_TRUE(lint::is_zero_literal(".0"));
  EXPECT_TRUE(lint::is_zero_literal("0."));
  EXPECT_TRUE(lint::is_zero_literal("0e9"));
  EXPECT_TRUE(lint::is_zero_literal("0.00f"));
  EXPECT_FALSE(lint::is_zero_literal("1.5"));
  EXPECT_FALSE(lint::is_zero_literal("1e-9"));
  EXPECT_FALSE(lint::is_zero_literal("0x1p3"));
  EXPECT_FALSE(lint::is_zero_literal("42"));  // not a float literal at all
}

TEST(LintTokenizer, ExponentSignsAndCharLiterals) {
  const auto toks = lint::tokenize("double d = 1.5e-3; char c = '\\'';\n");
  const auto nums = of_kind(toks, lint::Tok::kNumber);
  ASSERT_EQ(nums.size(), 1u);
  EXPECT_EQ(nums[0].text, "1.5e-3");
  const auto chars = of_kind(toks, lint::Tok::kCharLit);
  ASSERT_EQ(chars.size(), 1u);
  EXPECT_EQ(chars[0].text, "\\'");
}

TEST(LintTokenizer, HeaderNamesAndQuotedIncludes) {
  const auto toks = lint::tokenize(
      "#include <vector>\n#include \"server/cache.h\"\nint x;\n");
  const auto headers = of_kind(toks, lint::Tok::kHeaderName);
  ASSERT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers[0].text, "vector");
  EXPECT_TRUE(headers[0].in_pp);
  const auto strings = of_kind(toks, lint::Tok::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text, "server/cache.h");
  EXPECT_TRUE(strings[0].in_pp);
  // `<vector>` must not leak a '<' comparison into the stream.
  for (const auto& t : of_kind(toks, lint::Tok::kPunct)) {
    EXPECT_NE(t.text, "<");
  }
}

TEST(LintTokenizer, MaximalMunchPunctuation) {
  const auto toks = lint::tokenize("a >>= b; m<x<int>> v; p->q; s::t;\n");
  bool saw_shift_assign = false;
  bool saw_arrow = false;
  bool saw_scope = false;
  for (const auto& t : of_kind(toks, lint::Tok::kPunct)) {
    if (t.text == ">>=") saw_shift_assign = true;
    if (t.text == "->") saw_arrow = true;
    if (t.text == "::") saw_scope = true;
  }
  EXPECT_TRUE(saw_shift_assign);
  EXPECT_TRUE(saw_arrow);
  EXPECT_TRUE(saw_scope);
}

lint::SourceFile make_file(const std::string& path, const std::string& text) {
  lint::SourceFile f;
  f.path = path;
  f.in_src = path.find("/src/") != std::string::npos;
  f.tokens = lint::tokenize(text);
  return f;
}

TEST(LintLayering, BackEdgeIsRejectedAndForwardEdgeAccepted) {
  lint::LayerGraph graph;
  graph.deps["util"] = {};
  graph.deps["server"] = {"util"};
  graph.order = {"util", "server"};
  graph.line["util"] = 1;
  graph.line["server"] = 2;

  const std::vector<lint::SourceFile> files = {
      make_file("repo/src/server/ok.h", "#include \"util/strings.h\"\n"),
      make_file("repo/src/util/bad.h", "#include \"server/handler.h\"\n"),
  };
  const auto findings = lint::check_layering(files, graph, "layers.txt");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "repo/src/util/bad.h");
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].detail.find("may not depend on 'server'"),
            std::string::npos);
}

TEST(LintLayering, DeclaredCycleIsRejected) {
  lint::LayerGraph graph;
  graph.deps["a"] = {"b"};
  graph.deps["b"] = {"a"};
  graph.order = {"a", "b"};
  graph.line["a"] = 1;
  graph.line["b"] = 2;
  const auto findings = lint::check_layering({}, graph, "layers.txt");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("cycle"), std::string::npos);
}

TEST(LintLayering, UndeclaredSubsystemIsReported) {
  lint::LayerGraph graph;
  graph.deps["util"] = {};
  graph.order = {"util"};
  graph.line["util"] = 1;
  const std::vector<lint::SourceFile> files = {
      make_file("repo/src/rogue/orphan.h", "int x;\n"),
  };
  const auto findings = lint::check_layering(files, graph, "layers.txt");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].detail.find("'rogue'"), std::string::npos);
}

TEST(LintRules, ZeroComparisonExemptButNonZeroFlagged) {
  const std::vector<lint::SourceFile> files = {
      make_file("repo/src/mem/f.cpp",
                "bool g(double r) { return r == 0.0 || r == 1.5; }\n"),
  };
  const auto findings = lint::run_rules(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "float-equality");
  EXPECT_NE(findings[0].detail.find("1.5"), std::string::npos);
}

TEST(LintRules, LockOrderInversionAcrossFiles) {
  const std::vector<lint::SourceFile> files = {
      make_file("repo/src/a/f.cpp",
                "void f() { util::MutexLock g1(alpha_); "
                "util::MutexLock g2(beta_); }\n"),
      make_file("repo/src/b/g.cpp",
                "void g() { util::MutexLock g1(beta_); "
                "util::MutexLock g2(alpha_); }\n"),
  };
  const auto findings = lint::run_rules(files);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_EQ(findings[1].rule, "lock-order");
}

}  // namespace
