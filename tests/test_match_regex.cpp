// Regex engine tests: semantics, edge cases, and a property test
// against a simple reference backtracking matcher.
#include "match/nfa.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace wss::match {
namespace {

bool hit(const char* pattern, const char* text) {
  return Regex(pattern).search(text);
}

TEST(Regex, LiteralSearch) {
  EXPECT_TRUE(hit("panic", "rts panic! - stopping execution"));
  EXPECT_FALSE(hit("panic", "all is well"));
  EXPECT_TRUE(hit("", "anything"));  // empty pattern matches everywhere
  EXPECT_TRUE(hit("", ""));
}

TEST(Regex, Dot) {
  EXPECT_TRUE(hit("a.c", "abc"));
  EXPECT_TRUE(hit("a.c", "a-c"));
  EXPECT_FALSE(hit("a.c", "ac"));
  EXPECT_FALSE(hit("a.c", "a\nc"));  // dot excludes newline
}

TEST(Regex, Star) {
  EXPECT_TRUE(hit("ab*c", "ac"));
  EXPECT_TRUE(hit("ab*c", "abbbbc"));
  EXPECT_FALSE(hit("ab*c", "a c"));
}

TEST(Regex, Plus) {
  EXPECT_FALSE(hit("ab+c", "ac"));
  EXPECT_TRUE(hit("ab+c", "abc"));
  EXPECT_TRUE(hit("ab+c", "abbc"));
}

TEST(Regex, Question) {
  EXPECT_TRUE(hit("colou?r", "color"));
  EXPECT_TRUE(hit("colou?r", "colour"));
  EXPECT_FALSE(hit("colou?r", "colouur"));
}

TEST(Regex, BoundedRepeat) {
  EXPECT_TRUE(hit("a{3}", "xaaax"));
  EXPECT_FALSE(hit("^a{3}$", "aa"));
  EXPECT_TRUE(hit("^a{2,4}$", "aaa"));
  EXPECT_FALSE(hit("^a{2,4}$", "aaaaa"));
  EXPECT_TRUE(hit("^a{2,}$", "aaaaaa"));
  EXPECT_FALSE(hit("^a{2,}$", "a"));
}

TEST(Regex, BraceAsLiteralWhenNotABound) {
  // '{' not followed by a valid bound is a literal (log lines contain
  // plenty of braces).
  EXPECT_TRUE(hit("cmd {0", "cciss: cmd {0x12}"));
  EXPECT_TRUE(hit("a{,3}", "xa{,3}y"));
}

TEST(Regex, Alternation) {
  EXPECT_TRUE(hit("cat|dog", "hotdog stand"));
  EXPECT_TRUE(hit("cat|dog", "catalog"));
  EXPECT_FALSE(hit("cat|dog", "bird"));
  EXPECT_TRUE(hit("^(a|bc)+$", "abcbca"));
}

TEST(Regex, Groups) {
  EXPECT_TRUE(hit("(ab)+", "xababy"));
  EXPECT_FALSE(hit("^(ab)+$", "aba"));
}

TEST(Regex, CharClasses) {
  EXPECT_TRUE(hit("[abc]+", "cab"));
  EXPECT_FALSE(hit("^[abc]+$", "abd"));
  EXPECT_TRUE(hit("[a-z0-9]+", "xyz123"));
  EXPECT_TRUE(hit("[^0-9]", "a1"));
  EXPECT_FALSE(hit("^[^0-9]+$", "123"));
  EXPECT_TRUE(hit("[-x]", "a-b"));   // literal '-' at class edge
  EXPECT_TRUE(hit("[]x]", "]"));     // ']' first in class is literal
}

TEST(Regex, Escapes) {
  EXPECT_TRUE(hit("\\d+", "abc123"));
  EXPECT_FALSE(hit("\\d", "abc"));
  EXPECT_TRUE(hit("\\w+", "under_score9"));
  EXPECT_TRUE(hit("\\s", "a b"));
  EXPECT_FALSE(hit("\\S", "  \t"));
  EXPECT_TRUE(hit("\\D", "1a2"));
  EXPECT_TRUE(hit("a\\.b", "a.b"));
  EXPECT_FALSE(hit("a\\.b", "axb"));
  EXPECT_TRUE(hit("\\(111\\)", "refused (111) in open_demux"));
  EXPECT_TRUE(hit("\\\\", "back\\slash"));
  EXPECT_TRUE(hit("\\t", "a\tb"));
}

TEST(Regex, Anchors) {
  EXPECT_TRUE(hit("^kernel", "kernel: oops"));
  EXPECT_FALSE(hit("^kernel", "the kernel"));
  EXPECT_TRUE(hit("done$", "all done"));
  EXPECT_FALSE(hit("done$", "done yet?"));
  EXPECT_TRUE(hit("^$", ""));
  EXPECT_FALSE(hit("^$", "x"));
}

TEST(Regex, WordBoundaries) {
  EXPECT_TRUE(hit("\\bpanic\\b", "rts panic! - stopping"));
  EXPECT_FALSE(hit("\\bpanic\\b", "kernelpanic happened"));
  EXPECT_FALSE(hit("\\bpanic\\b", "panics everywhere"));
  EXPECT_TRUE(hit("\\bpanic", "panic at start"));
  EXPECT_TRUE(hit("panic\\b", "end with panic"));
  // \B: not at a boundary.
  EXPECT_TRUE(hit("\\Bode\\b", "node down"));
  EXPECT_FALSE(hit("\\Bnode", "node down"));
  EXPECT_THROW(Regex("\\b*"), PatternError);
}

TEST(Regex, FullMatch) {
  Regex re("a+b");
  EXPECT_TRUE(re.full_match("aaab"));
  EXPECT_FALSE(re.full_match("aaabc"));
  EXPECT_FALSE(re.full_match("xaab"));
  EXPECT_TRUE(Regex("").full_match(""));
  EXPECT_FALSE(Regex("").full_match("x"));
}

TEST(Regex, CaseInsensitive) {
  ParseOptions opts;
  opts.case_insensitive = true;
  Regex re("Fatal Error", opts);
  EXPECT_TRUE(re.search("FATAL ERROR detected"));
  EXPECT_TRUE(re.search("fatal error"));
  Regex cls("[a-c]+", opts);
  EXPECT_TRUE(cls.search("ABC"));
}

TEST(Regex, CompileErrors) {
  EXPECT_THROW(Regex("a("), PatternError);
  EXPECT_THROW(Regex("a)"), PatternError);
  EXPECT_THROW(Regex("["), PatternError);
  EXPECT_THROW(Regex("*a"), PatternError);
  EXPECT_THROW(Regex("a\\"), PatternError);
  EXPECT_THROW(Regex("[z-a]"), PatternError);
  EXPECT_THROW(Regex("a{3,2}"), PatternError);
  EXPECT_THROW(Regex("a{999}"), PatternError);
  EXPECT_THROW(Regex("^*"), PatternError);
}

TEST(Regex, PrefilterLiteral) {
  EXPECT_EQ(Regex("kernel panic").prefilter_literal(), "kernel panic");
  EXPECT_EQ(Regex("EXT3-fs error").prefilter_literal(), "EXT3-fs error");
  // The longest mandatory literal wins.
  EXPECT_EQ(Regex("a+ very long literal [0-9]").prefilter_literal(),
            " very long literal ");
  // Alternation yields no guaranteed literal.
  EXPECT_EQ(Regex("cat|dog").prefilter_literal(), "");
  // Optional parts contribute nothing.
  EXPECT_EQ(Regex("(abc)?xy").prefilter_literal(), "xy");
}

TEST(Regex, IsLiteral) {
  // Exactly its prefilter literal: the tag engine decides these terms
  // from the literal scan alone.
  for (const char* p : {"kernel panic", "error\\(s\\)", "z\\+",
                        "NMI received\\. Dazed", "(ab)c", "x{1}"}) {
    const Regex re(p);
    EXPECT_TRUE(re.is_literal()) << p;
    EXPECT_EQ(re.program_size(), re.prefilter_literal().size() + 1) << p;
  }
  EXPECT_EQ(Regex("error\\(s\\)").prefilter_literal(), "error(s)");
  for (const char* p : {".", "a.b", "[ab]", "^x", "x$", "\\bx", "a|b", "a+",
                        "a{3}", "ab?", ""}) {
    EXPECT_FALSE(Regex(p).is_literal()) << p;
  }
  EXPECT_FALSE(Regex("panic", ParseOptions{.case_insensitive = true})
                   .is_literal());
  EXPECT_FALSE(Regex("123", ParseOptions{.case_insensitive = true})
                   .is_literal());
}

TEST(Regex, PathologicalPatternIsFast) {
  // Classic backtracking killer: (a+)+b on "aaaa...a". A Pike VM runs
  // this in linear time; just assert it terminates correctly.
  Regex re("(a+)+b");
  const std::string text(2000, 'a');
  EXPECT_FALSE(re.search(text));
  EXPECT_TRUE(re.search(text + "b"));
}

TEST(Regex, PaperRules) {
  // The three example rules from Section 3.2.
  EXPECT_TRUE(hit("kernel: EXT3-fs error",
                  "Feb 28 01:02:03 sn373 kernel: EXT3-fs error (device ...)"));
  EXPECT_TRUE(hit("PANIC_SP WE ARE TOASTED!",
                  "ec_console_log src:::c0-0c1s2n3 PANIC_SP WE ARE TOASTED!"));
  EXPECT_TRUE(hit("kernel panic", "RAS KERNEL FATAL kernel panic"));
}

// ------------------------------------------------------------------
// Property test: agreement with a reference backtracking matcher on
// random small patterns and texts over {a, b}.
// ------------------------------------------------------------------

/// Naive exponential-time matcher for the tested subset; `match_here`
/// returns true if pattern[pi..] matches some prefix of text[ti..].
class NaiveMatcher {
 public:
  explicit NaiveMatcher(std::string pattern) : p_(std::move(pattern)) {}

  bool search(const std::string& text) const {
    for (std::size_t i = 0; i <= text.size(); ++i) {
      if (match_here(0, text, i)) return true;
    }
    return false;
  }

 private:
  // Supports literals, '.', '*', '+', '?' on single atoms; enough to
  // cross-check the hot paths.
  bool match_here(std::size_t pi, const std::string& t, std::size_t ti) const {
    if (pi == p_.size()) return true;
    const bool has_quant =
        pi + 1 < p_.size() &&
        (p_[pi + 1] == '*' || p_[pi + 1] == '+' || p_[pi + 1] == '?');
    const auto atom_matches = [&](std::size_t at) {
      return at < t.size() && (p_[pi] == '.' || p_[pi] == t[at]);
    };
    if (!has_quant) {
      return atom_matches(ti) && match_here(pi + 1, t, ti + 1);
    }
    const char q = p_[pi + 1];
    if (q == '?') {
      if (atom_matches(ti) && match_here(pi + 2, t, ti + 1)) return true;
      return match_here(pi + 2, t, ti);
    }
    // '*' or '+': try every count.
    std::size_t k = 0;
    if (q == '+') {
      if (!atom_matches(ti)) return false;
      k = 1;
    }
    for (;; ++k) {
      if (match_here(pi + 2, t, ti + k)) return true;
      if (!atom_matches(ti + k)) return false;
    }
  }

  std::string p_;
};

TEST(RegexProperty, AgreesWithNaiveMatcher) {
  util::Rng rng(99);
  const char atoms[] = {'a', 'b', '.'};
  const char quants[] = {'\0', '*', '+', '?'};
  for (int iter = 0; iter < 3000; ++iter) {
    std::string pattern;
    const int n_atoms = 1 + static_cast<int>(rng.uniform_u64(4));
    for (int i = 0; i < n_atoms; ++i) {
      pattern.push_back(atoms[rng.uniform_u64(3)]);
      const char q = quants[rng.uniform_u64(4)];
      if (q != '\0') pattern.push_back(q);
    }
    std::string text;
    const int n_chars = static_cast<int>(rng.uniform_u64(7));
    for (int i = 0; i < n_chars; ++i) {
      text.push_back(rng.bernoulli(0.5) ? 'a' : 'b');
    }
    const bool expected = NaiveMatcher(pattern).search(text);
    const Regex re(pattern);
    const bool actual = re.search(text);
    EXPECT_EQ(actual, expected)
        << "pattern=" << pattern << " text=" << text;
    if (re.is_literal()) {
      EXPECT_EQ(actual, text.find(re.prefilter_literal()) != std::string::npos)
          << "pattern=" << pattern << " text=" << text;
    }
  }
}

}  // namespace
}  // namespace wss::match
