#include "tag/engine.hpp"

#include <gtest/gtest.h>

#include "sim/generator.hpp"
#include "tag/evaluate.hpp"
#include "tag/rulesets.hpp"
#include "tag/severity_tagger.hpp"

namespace wss::tag {
namespace {

using parse::SystemId;

/// The oracle: probe every rule's predicate in order, first match wins.
/// The engine's prefilter and set-matching DFA must reproduce it exactly.
std::optional<TagResult> oracle_tag(const RuleSet& rs, std::string_view line) {
  thread_local match::MatchScratch scratch;
  const auto& rules = rs.rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].predicate.matches(line, scratch)) {
      return TagResult{static_cast<std::uint16_t>(i), rules[i].type};
    }
  }
  return std::nullopt;
}

/// Tags `line` with both the engine and the oracle, expects the same
/// category and type, and returns whether the engine tagged it.
bool expect_agrees(const TagEngine& engine, std::string_view line) {
  const auto got = engine.tag_line(line);
  const auto want = oracle_tag(engine.rules(), line);
  EXPECT_EQ(got.has_value(), want.has_value()) << line;
  if (got && want) {
    EXPECT_EQ(got->category, want->category) << line;
    EXPECT_EQ(got->type, want->type) << line;
  }
  return got.has_value();
}

TEST(TagEngine, FirstMatchWins) {
  // Build a tiny rule set with overlapping patterns.
  std::vector<Rule> rules(2);
  rules[0].category = "SPECIFIC";
  rules[0].predicate.add_term(0, "disk error on sda");
  rules[1].category = "GENERIC";
  rules[1].predicate.add_term(0, "disk error");
  const RuleSet rs(SystemId::kLiberty, std::move(rules));
  const TagEngine engine(rs);
  const auto hit = engine.tag_line("kernel: disk error on sda5");
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->category, 0);
  const auto generic = engine.tag_line("kernel: disk error on hdb");
  ASSERT_TRUE(generic);
  EXPECT_EQ(generic->category, 1);
}

TEST(TagEngine, NoMatchReturnsNullopt) {
  const TagEngine engine(build_ruleset(SystemId::kLiberty));
  EXPECT_FALSE(engine.tag_line("Jun  3 10:00:00 ln1 sshd[1]: session opened"));
  EXPECT_FALSE(engine.tag_line(""));
}

TEST(TagEngine, TagsParsedRecordViaRaw) {
  const TagEngine engine(build_ruleset(SystemId::kLiberty));
  parse::LogRecord rec;
  rec.raw = "Jun  3 10:00:00 ln1 pbs_mom[9]: task_check, cannot tm_reply to "
            "1.ladmin1 task 1";
  const auto hit = engine.tag(rec);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->type, filter::AlertType::kSoftware);
}

TEST(TagEngine, CorruptedTailStillTagsWhenPatternIntact) {
  // Truncation after the matched substring (the common real case).
  const TagEngine engine(build_ruleset(SystemId::kThunderbird));
  EXPECT_TRUE(engine.tag_line(
      "kernel: [KERNEL_IB][ib_sm_sweep.c:1455]Fatal error (Local "
      "Catastrophic Error"));
  // Truncation inside the pattern loses the alert -- a documented
  // failure mode of automated tagging (Section 3.2.1).
  EXPECT_FALSE(engine.tag_line("kernel: [KERNEL_IB][ib_sm_sweep.c:1455]Fat"));
}

TEST(TagEngine, NegatedTermsDoNotGateCandidacy) {
  // A negated term is SATISFIED when its pattern is absent -- so its
  // required literal must not be demanded by the prefilter. Rule:
  // /disk error/ && !/recovered/.
  std::vector<Rule> rules(1);
  rules[0].category = "DISK";
  rules[0].predicate.add_term(0, "disk error");
  rules[0].predicate.add_term(0, "recovered", /*negated=*/true);
  const TagEngine engine(RuleSet(SystemId::kLiberty, std::move(rules)));
  // "recovered" absent: the negated conjunct holds, the rule fires.
  EXPECT_TRUE(expect_agrees(engine, "kernel: disk error on sda"));
  // "recovered" present: the negated conjunct fails.
  EXPECT_FALSE(expect_agrees(engine, "kernel: disk error on sda recovered"));
  EXPECT_FALSE(expect_agrees(engine, "kernel: all quiet"));
}

TEST(TagEngine, NegatedFieldTerms) {
  // Field terms ride the direct evaluation path, past the DFA.
  std::vector<Rule> rules(1);
  rules[0].category = "FIELDNEG";
  rules[0].predicate.add_term(0, "panic");
  rules[0].predicate.add_term(2, "APP", /*negated=*/true);
  const TagEngine engine(RuleSet(SystemId::kLiberty, std::move(rules)));
  EXPECT_TRUE(expect_agrees(engine, "x KERNEL panic now"));
  EXPECT_FALSE(expect_agrees(engine, "x APP panic now"));
}

TEST(TagEngine, LiteralTermsDecidedByTheScan) {
  // Literal terms are decided by the literal scan's found bit, the rest
  // by the DFA; the mix must still resolve exactly like the oracle.
  std::vector<Rule> rules(6);
  rules[0].category = "LIT_BEFORE";
  rules[0].predicate.add_term(0, "disk error on sda");
  rules[1].category = "REGEX";
  rules[1].predicate.add_term(0, "ecc.*corrected");
  rules[2].category = "LIT_AND_REGEX";
  rules[2].predicate.add_term(0, "panic\\(\\)");
  rules[2].predicate.add_term(0, "cpu[0-9]+");
  rules[3].category = "NEG_LIT";
  rules[3].predicate.add_term(0, "disk error");
  rules[3].predicate.add_term(0, "recovered", /*negated=*/true);
  rules[4].category = "FIELD";
  rules[4].predicate.add_term(0, "machine check");
  rules[4].predicate.add_term(2, "KERNEL");
  rules[5].category = "LIT_AFTER";
  rules[5].predicate.add_term(0, "ecc");
  const TagEngine engine(RuleSet(SystemId::kLiberty, std::move(rules)));
  // Only ecc.*corrected, cpu[0-9]+ and the negated term reach the DFA.
  EXPECT_EQ(engine.multi().size(), 3u);
  const struct {
    const char* line;
    int want;  // expected rule index, -1 for no match
  } cases[] = {
      {"kernel: disk error on sda5", 0},
      {"kernel: ecc error corrected", 1},
      {"kernel: ecc error", 5},
      {"kernel: corrected ecc", 5},
      {"kernel: panic() on cpu3", 2},
      {"kernel: panic() on cpu", -1},
      {"kernel: panic on cpu3", -1},
      {"kernel: disk error on hdb", 3},
      {"kernel: disk error on hdb recovered", -1},
      {"kernel: disk error on sda recovered", 0},
      {"x KERNEL machine check", 4},
      {"x APP machine check", -1},
      {"x KERNEL machine check ecc", 4},
      {"x APP machine check ecc corrected", 1},
      {"", -1},
      {"no literal here", -1},
  };
  match::MatchScratch scratch;
  for (const auto& c : cases) {
    expect_agrees(engine, c.line);
    const auto got = engine.tag_line(c.line, scratch);
    EXPECT_EQ(got ? static_cast<int>(got->category) : -1, c.want) << c.line;
  }
}

TEST(TagEngine, LiteralRuleSetsNeverRunTheDfa) {
  // Every BG/L whole-line term is a literal: the scan decides them all
  // and the DFA never runs. Liberty's GM_PAR has a .* and still does.
  const TagEngine bgl(build_ruleset(SystemId::kBlueGeneL));
  EXPECT_EQ(bgl.multi().size(), 0u);
  sim::SimOptions opts;
  opts.category_cap = 100;
  opts.chatter_events = 1000;
  const sim::Simulator simulator(SystemId::kBlueGeneL, opts);
  match::MatchScratch scratch;
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    bgl.tag_line(simulator.line(i), scratch);
  }
  EXPECT_GT(scratch.tag_hits, 0u);
  EXPECT_EQ(scratch.dfa_scans, 0u);
  EXPECT_EQ(scratch.pike_fallback_scans, 0u);

  const TagEngine liberty(build_ruleset(SystemId::kLiberty));
  match::MatchScratch lscratch;
  const auto hit = liberty.tag_line(
      "Jun  3 10:00:00 ln1 kernel: GM: LANAI[0]: PANIC: "
      "/usr/src/gm/firmware/gm_parity.c:115:parity_int():firmware",
      lscratch);
  ASSERT_TRUE(hit);
  EXPECT_EQ(liberty.rules().rules()[hit->category].category, "GM_PAR");
  EXPECT_GT(lscratch.dfa_scans, 0u);
}

TEST(TagEngine, AgreesWithOracleOnAllSystems) {
  // The load-bearing equivalence: the engine must agree with the oracle
  // on every rendered line of every system -- category AND type, not
  // just hit/miss (first-match-wins ordering is part of the contract).
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 2000;
  for (const auto id : parse::kAllSystems) {
    const sim::Simulator simulator(id, opts);
    const TagEngine engine(build_ruleset(id));
    std::size_t hits = 0;
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      if (expect_agrees(engine, simulator.line(i))) ++hits;
      if (HasFailure()) return;
    }
    EXPECT_GT(hits, 0u) << parse::system_name(id);
  }
}

/// FNV-1a over 64-bit words.
std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// The engine's build -- MultiRegex's byte classes (count and the
// byte -> class map, whose numbering follows first-byte order) and the
// LiteralScanner's automaton -- pinned per system to the values the
// straightforward 256-wide construction produced, together with the
// literal-scan and tag results over a generated corpus. The DFA holds
// only the terms a literal cannot decide: none on BG/L, Thunderbird
// and Red Storm (2 classes, the \w split alone), GM_MAP on Spirit and
// GM_PAR/GM_MAP on Liberty.
TEST(TagEngineBuild, ByteClassesAndScansPinnedPerSystem) {
  struct Pin {
    SystemId system;
    std::size_t dfa_classes;
    std::uint64_t dfa_class_map;
    std::size_t literal_classes;
    std::size_t literal_states;
    std::uint64_t scans;
  };
  const Pin pins[] = {
      {SystemId::kBlueGeneL, 2, 0xd5537a9fcc5c1664ull, 56, 1353,
       0x3964fb394596184cull},
      {SystemId::kThunderbird, 2, 0xd5537a9fcc5c1664ull, 51, 259,
       0x9ee12dca7ee3885aull},
      {SystemId::kRedStorm, 2, 0xd5537a9fcc5c1664ull, 48, 253,
       0xfa6bd5cba298f498ull},
      {SystemId::kSpirit, 21, 0xaac3734bff02d7f1ull, 48, 190,
       0x6df4e834c1e33ca5ull},
      {SystemId::kLiberty, 23, 0x8c8cc16959783876ull, 36, 153,
       0x19b09bdba5088b97ull},
  };
  sim::SimOptions opts;
  opts.category_cap = 100;
  opts.chatter_events = 1000;
  opts.inject_corruption = true;
  for (const Pin& pin : pins) {
    const TagEngine engine(build_ruleset(pin.system));
    std::uint64_t class_map = 14695981039346656037ull;
    for (int b = 0; b < 256; ++b) {
      class_map = fold(class_map,
                       engine.multi().byte_class(static_cast<unsigned char>(b)));
    }
    const match::LiteralScanner& lits = engine.literal_scanner();
    const sim::Simulator simulator(pin.system, opts);
    std::vector<std::uint64_t> found;
    match::MatchScratch scratch;
    std::uint64_t scans = 14695981039346656037ull;
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      const std::string line = simulator.line(i);
      scans = fold(scans, lits.scan_fresh(line, found));
      for (const std::uint64_t w : found) scans = fold(scans, w);
      const auto tagged = engine.tag_line(line, scratch);
      scans = fold(scans, tagged ? tagged->category + 1u : 0u);
    }
    EXPECT_EQ(engine.multi().byte_classes(), pin.dfa_classes);
    EXPECT_EQ(class_map, pin.dfa_class_map);
    EXPECT_EQ(lits.byte_classes(), pin.literal_classes);
    EXPECT_EQ(lits.states(), pin.literal_states);
    EXPECT_EQ(scans, pin.scans) << parse::system_name(pin.system);
  }
}

TEST(TagEngine, CorruptedLinesAgreeWithOracle) {
  // Corruption injection mangles sources, timestamps, and bodies --
  // exactly the text shapes where a prefilter, or a term decided by
  // the literal scan alone, could diverge.
  sim::SimOptions opts;
  opts.category_cap = 300;
  opts.chatter_events = 2000;
  opts.inject_corruption = true;
  for (const auto id : parse::kAllSystems) {
    const sim::Simulator simulator(id, opts);
    const TagEngine engine(build_ruleset(id));
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      expect_agrees(engine, simulator.line(i));
      if (HasFailure()) return;
    }
  }
}

TEST(SeverityTagger, BglBaseline) {
  const auto tagger = SeverityTagger::bgl_fatal_failure();
  parse::LogRecord rec;
  rec.severity = parse::Severity::kFatal;
  EXPECT_TRUE(tagger.is_alert(rec));
  rec.severity = parse::Severity::kFailure;
  EXPECT_TRUE(tagger.is_alert(rec));
  rec.severity = parse::Severity::kInfo;
  EXPECT_FALSE(tagger.is_alert(rec));
  rec.severity = parse::Severity::kSevere;
  EXPECT_FALSE(tagger.is_alert(rec));
}

TEST(TaggerEvaluation, RatesFromPaperNumbers) {
  // Table 5's arithmetic: tagging FATAL/FAILURE as alerts yields
  // TP = 348,460, FP = 855,501 + 1,714 - 348,460 = 508,755.
  TaggerEvaluation e;
  e.add(true, true, 348460);
  e.add(true, false, 508755);
  e.add(false, false, 3890748);
  EXPECT_NEAR(e.false_positive_rate(), 0.5934, 0.0005);
  EXPECT_DOUBLE_EQ(e.false_negative_rate(), 0.0);
  EXPECT_NEAR(e.precision(), 1.0 - 0.5934, 0.0005);
  EXPECT_DOUBLE_EQ(e.recall(), 1.0);
}

TEST(TaggerEvaluation, EmptyIsZero) {
  TaggerEvaluation e;
  EXPECT_EQ(e.false_positive_rate(), 0.0);
  EXPECT_EQ(e.false_negative_rate(), 0.0);
}

TEST(TaggerEvaluation, DescribeIncludesRates) {
  TaggerEvaluation e;
  e.add(true, true);
  e.add(true, false);
  const std::string d = e.describe();
  EXPECT_NE(d.find("FP rate 50.00%"), std::string::npos);
}

}  // namespace
}  // namespace wss::tag
