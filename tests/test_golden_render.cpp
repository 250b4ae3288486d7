// Byte-for-byte pin of the renderer: every line of a corpus covering
// all five systems at two seeds, with corruption on, is hashed with
// FNV-1a for both render() and render_clean(). The expected digests
// were computed before the renderer learned to append into a caller's
// buffer, so any drift in rendered bytes -- a changed format, a
// reordered RNG draw, a corruption edit applied differently -- fails
// here, naming the system and seed.
//
// The corpus must exercise every log path and every placeholder key;
// the coverage test asserts that, so a shrunken corpus cannot pass by
// skipping the code it is meant to pin.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>

#include "sim/chatter.hpp"
#include "sim/generator.hpp"
#include "tag/rulesets.hpp"
#include "util/strings.hpp"

namespace wss::sim {
namespace {

using parse::SystemId;

SimOptions corpus_options(std::uint64_t seed) {
  SimOptions o;
  o.seed = seed;
  o.category_cap = 300;
  o.chatter_events = 6000;
  o.inject_corruption = true;
  return o;
}

struct Expected {
  SystemId system;
  std::uint64_t seed;
  std::uint64_t render;
  std::uint64_t clean;
};

constexpr std::array<Expected, 10> kExpected = {{
    {SystemId::kBlueGeneL, 1, 0x1a0396a2ec8bae1full, 0xe2de9004f23e60e7ull},
    {SystemId::kBlueGeneL, 7, 0xddc0e1c14905cf39ull, 0xfdfa95f7a06faf30ull},
    {SystemId::kThunderbird, 1, 0xc6be48daa93f0c34ull, 0xdfad6fba1a3b4719ull},
    {SystemId::kThunderbird, 7, 0xa403cb90412831e8ull, 0x20ffcb388901f7fdull},
    {SystemId::kRedStorm, 1, 0x80aa3c93d144ea4full, 0xea0b6bdcfbbe6362ull},
    {SystemId::kRedStorm, 7, 0x1fed60b1dbf337afull, 0xf76a0da5ff6d4f28ull},
    {SystemId::kSpirit, 1, 0x716464e73713696aull, 0xa7f0a13373613592ull},
    {SystemId::kSpirit, 7, 0x8bdb73fe44c1d60cull, 0x9e8f6b502242d289ull},
    {SystemId::kLiberty, 1, 0xa5270f5ba87e07d2ull, 0x3d07f08d124c32c2ull},
    {SystemId::kLiberty, 7, 0x17219667bbbde9d2ull, 0x7bc92381ba7361aaull},
}};

/// A digest as a constant ready to paste into kExpected when a failure
/// prints it.
std::string hex(std::uint64_t v) {
  return util::format("0x%016llx", static_cast<unsigned long long>(v));
}

std::string_view template_of(const Simulator& sim, const SimEvent& e) {
  if (e.is_alert()) {
    return tag::categories_of(sim.spec().id)
        .at(static_cast<std::size_t>(e.category))
        ->body_template;
  }
  return chatter_templates(sim.spec().id).at(e.chatter_kind).body;
}

/// Adds every "{key}" in `tmpl` to `keys`.
void collect_keys(std::string_view tmpl, std::set<std::string>& keys) {
  for (std::size_t i = tmpl.find('{'); i != std::string_view::npos;
       i = tmpl.find('{', i + 1)) {
    const std::size_t close = tmpl.find('}', i);
    if (close == std::string_view::npos) break;
    keys.emplace(tmpl.substr(i + 1, close - i - 1));
  }
}

TEST(GoldenRender, EveryLineMatchesItsDigest) {
  for (const Expected& x : kExpected) {
    const Simulator sim(x.system, corpus_options(x.seed));
    // Newline-terminated, so the digest covers line boundaries too.
    std::string render;
    std::string clean;
    for (std::size_t i = 0; i < sim.events().size(); ++i) {
      const SimEvent& e = sim.events()[i];
      render += sim.renderer().render(e, i);
      render += '\n';
      clean += sim.renderer().render_clean(e, i);
      clean += '\n';
    }
    const std::string where = std::string(parse::system_name(x.system)) +
                              " seed " + std::to_string(x.seed);
    EXPECT_EQ(hex(util::fnv1a(render)), hex(x.render)) << where << " render";
    EXPECT_EQ(hex(util::fnv1a(clean)), hex(x.clean))
        << where << " render_clean";
  }
}

TEST(GoldenRender, CorpusCoversEveryPathAndPlaceholder) {
  std::set<tag::LogPath> paths;
  std::set<std::string> keys;
  std::size_t corrupted = 0;
  for (const Expected& x : kExpected) {
    const Simulator sim(x.system, corpus_options(x.seed));
    for (std::size_t i = 0; i < sim.events().size(); ++i) {
      const SimEvent& e = sim.events()[i];
      paths.insert(sim.renderer().path_of(e));
      collect_keys(template_of(sim, e), keys);
      if (sim.renderer().render(e, i) != sim.renderer().render_clean(e, i)) {
        ++corrupted;
      }
    }
  }
  for (const tag::LogPath p :
       {tag::LogPath::kSyslog, tag::LogPath::kBglRas, tag::LogPath::kRsSyslog,
        tag::LogPath::kRsDdn, tag::LogPath::kRsEventRouter}) {
    EXPECT_TRUE(paths.count(p)) << "log path " << static_cast<int>(p);
  }
  for (const char* k : {"n", "ip", "hex", "path", "node", "time"}) {
    EXPECT_TRUE(keys.count(k)) << "placeholder {" << k << "}";
  }
  EXPECT_GT(corrupted, 0u) << "no line took a corruption edit";
}

}  // namespace
}  // namespace wss::sim
