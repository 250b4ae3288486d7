#include "tag/engine.hpp"

#include <gtest/gtest.h>

#include "sim/generator.hpp"
#include "tag/evaluate.hpp"
#include "tag/rulesets.hpp"
#include "tag/severity_tagger.hpp"
#include "util/rng.hpp"

namespace wss::tag {
namespace {

using parse::SystemId;

/// The oracle: probe every rule's predicate in order, first match wins.
/// The engine's prefilter and literal-decided terms must reproduce it
/// exactly.
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
  // Field terms run their own regex on the awk field split.
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
  // by their own regex; the mix must still resolve exactly like the
  // oracle.
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

  // A regex runs only for a candidate rule no earlier rule beat: rule 0
  // decides this line from the scan alone, before rule 1's .* term.
  match::MatchScratch lazy;
  engine.tag_line("kernel: disk error on sda5 ecc corrected", lazy);
  EXPECT_EQ(lazy.dfa_scans, 0u);
  engine.tag_line("kernel: ecc error corrected", lazy);
  EXPECT_EQ(lazy.dfa_scans, 1u);
}

TEST(TagEngine, LiteralRuleSetsNeverRunARegex) {
  // Every BG/L whole-line term is a literal: the scan decides them all
  // and no regex runs. Liberty's GM_PAR has a .* and still runs one.
  const TagEngine bgl(build_ruleset(SystemId::kBlueGeneL));
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

  const TagEngine liberty(build_ruleset(SystemId::kLiberty));
  match::MatchScratch lscratch;
  const auto hit = liberty.tag_line(
      "Jun  3 10:00:00 ln1 kernel: GM: LANAI[0]: PANIC: "
      "/usr/src/gm/firmware/gm_parity.c:115:parity_int():firmware",
      lscratch);
  ASSERT_TRUE(hit);
  EXPECT_EQ(liberty.rules().rules()[hit->category].category, "GM_PAR");
  EXPECT_EQ(lscratch.dfa_scans, 1u);
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

// The engine's build -- the LiteralScanner's automaton (byte classes
// and states) -- pinned per system to the values the straightforward
// 256-wide construction produced, together with the literal-scan and
// tag results over a generated corpus.
TEST(TagEngineBuild, ByteClassesAndScansPinnedPerSystem) {
  struct Pin {
    SystemId system;
    std::size_t literal_classes;
    std::size_t literal_states;
    std::uint64_t scans;
  };
  const Pin pins[] = {
      {SystemId::kBlueGeneL, 56, 1353, 0x3964fb394596184cull},
      {SystemId::kThunderbird, 51, 259, 0x9ee12dca7ee3885aull},
      {SystemId::kRedStorm, 48, 253, 0xfa6bd5cba298f498ull},
      {SystemId::kSpirit, 48, 190, 0x6df4e834c1e33ca5ull},
      {SystemId::kLiberty, 36, 153, 0x19b09bdba5088b97ull},
  };
  sim::SimOptions opts;
  opts.category_cap = 100;
  opts.chatter_events = 1000;
  opts.inject_corruption = true;
  for (const Pin& pin : pins) {
    const TagEngine engine(build_ruleset(pin.system));
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

// Short literals shared by the random rule sets and lines below, so
// that most lines keep some candidate past the prefilter.
constexpr const char* kWords[] = {"disk", "err", "ecc", "cpu", "gm", "ok"};

const char* random_word(util::Rng& rng) {
  return kWords[rng.uniform_u64(std::size(kWords))];
}

/// One rule term's pattern: a literal, `L1.*L2`, an anchored literal,
/// a `\b`-delimited literal, or a literal next to a character class.
std::string random_term_pattern(util::Rng& rng) {
  const std::string a = random_word(rng);
  const std::string b = random_word(rng);
  switch (rng.uniform_u64(7)) {
    case 0:
    case 1: return a;
    case 2: return a + ".*" + b;
    case 3: return "^" + a;
    case 4: return a + "$";
    case 5: return "\\b" + a + "\\b";
    default: return rng.uniform_u64(2) ? a + "[0-9]+" : "[a-z]+" + a;
  }
}

RuleSet random_ruleset(util::Rng& rng) {
  std::vector<Rule> rules(1 + rng.uniform_u64(10));
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rules[i].category = "R" + std::to_string(i);
    rules[i].type = static_cast<filter::AlertType>(rng.uniform_u64(3));
    const std::size_t terms = 1 + rng.uniform_u64(3);
    for (std::size_t t = 0; t < terms; ++t) {
      const int field =
          rng.uniform_u64(4) == 0 ? static_cast<int>(1 + rng.uniform_u64(3))
                                  : 0;
      const bool negated = rng.uniform_u64(5) == 0;
      match::ParseOptions popts;
      popts.case_insensitive = rng.uniform_u64(10) == 0;
      rules[i].predicate.add_term(field, random_term_pattern(rng), negated,
                                  popts);
    }
  }
  return RuleSet(SystemId::kLiberty, std::move(rules));
}

/// A line of up to six tokens -- rule words, digits, an upper-cased
/// word -- joined by a space, a colon or nothing (which moves `\b`).
std::string random_line(util::Rng& rng) {
  static constexpr const char* kSeparators[] = {" ", " ", ":", ""};
  std::string line;
  const std::size_t tokens = rng.uniform_u64(7);
  for (std::size_t i = 0; i < tokens; ++i) {
    if (i > 0) line += kSeparators[rng.uniform_u64(std::size(kSeparators))];
    switch (rng.uniform_u64(6)) {
      case 0: line += std::to_string(rng.uniform_u64(100)); break;
      case 1: line += "ECC"; break;
      default: line += random_word(rng);
    }
  }
  return line;
}

TEST(TagEngine, RandomRuleSetsAgreeWithOracle) {
  // Seeded random rule sets mixing literal, .*, anchored, \b and class
  // terms, negated and $N field terms, against lines built from the
  // same words: first match wins must hold on every pair.
  util::Rng rng(20070625);
  std::size_t hits = 0;
  for (int set = 0; set < 300; ++set) {
    const TagEngine engine(random_ruleset(rng));
    for (int i = 0; i < 100; ++i) {
      if (expect_agrees(engine, random_line(rng))) ++hits;
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(hits, 1000u);
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
