#include "sim/render.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"
#include "util/time.hpp"

namespace wss::sim {

namespace {

constexpr std::string_view kPaths[] = {
    "/usr/src/gm/libgm", "/var/spool/pbs/mom_priv", "/etc/sysconfig",
    "/bgl/ciod/maps",    "/scratch/run42",
};

/// Lowercase severity token for the syslog priority field.
std::string_view priority_name(parse::Severity s) {
  switch (s) {
    case parse::Severity::kDebug:
      return "debug";
    case parse::Severity::kInfo:
      return "info";
    case parse::Severity::kNotice:
      return "notice";
    case parse::Severity::kWarning:
      return "warning";
    case parse::Severity::kError:
      return "err";
    case parse::Severity::kCrit:
      return "crit";
    case parse::Severity::kAlert:
      return "alert";
    case parse::Severity::kEmerg:
      return "emerg";
    default:
      return "info";
  }
}

/// Appends `v` as 16 lowercase hex digits ("%016llx").
void append_hex16(std::uint64_t v, std::string& out) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (int i = 15; i >= 0; --i, v >>= 4) buf[i] = kDigits[v & 0xf];
  out.append(buf, sizeof(buf));
}

}  // namespace

Renderer::Renderer(const SystemSpec& spec, const SourceNamer& namer,
                   CorruptionConfig corruption, std::uint64_t seed)
    : spec_(&spec),
      namer_(&namer),
      categories_(tag::categories_of(spec.id)),
      injector_(corruption, seed ^ 0xc0ffee),
      seed_(seed) {}

tag::LogPath Renderer::path_of(const SimEvent& e) const {
  if (e.is_alert()) {
    return categories_.at(static_cast<std::size_t>(e.category))->path;
  }
  return chatter_templates(spec_->id).at(e.chatter_kind).path;
}

void Renderer::expand(std::string_view tmpl, const SimEvent& e,
                      util::Rng& rng, std::string& out) const {
  for (std::size_t i = 0; i < tmpl.size();) {
    if (tmpl[i] != '{') {
      const std::size_t open = std::min(tmpl.find('{', i), tmpl.size());
      out.append(tmpl.substr(i, open - i));
      i = open;
      continue;
    }
    const std::size_t close = tmpl.find('}', i);
    if (close == std::string_view::npos) {
      out.append(tmpl.substr(i));
      break;
    }
    const std::string_view key = tmpl.substr(i + 1, close - i - 1);
    if (key == "n") {
      util::append_uint(static_cast<std::uint64_t>(rng.uniform_i64(1, 9999)),
                        out);
    } else if (key == "ip") {
      // One statement per draw, last octet first: the order every
      // rendered address and golden was made with. As the arguments of
      // one call, the order of the draws would be the compiler's choice.
      const auto d = static_cast<std::uint64_t>(rng.uniform_i64(1, 254));
      const auto c = static_cast<std::uint64_t>(rng.uniform_i64(0, 255));
      const auto b = static_cast<std::uint64_t>(rng.uniform_i64(0, 3));
      out.append("10.");
      util::append_uint(b, out);
      out.push_back('.');
      util::append_uint(c, out);
      out.push_back('.');
      util::append_uint(d, out);
    } else if (key == "hex") {
      append_hex16(rng(), out);
    } else if (key == "path") {
      out.append(kPaths[rng.uniform_u64(std::size(kPaths))]);
    } else if (key == "node") {
      namer_->append_name(e.source, out);
    } else if (key == "time") {
      util::append_iso(e.time, out);
    } else {
      out.append(tmpl.substr(i, close - i + 1));  // unknown: literal
    }
    i = close + 1;
  }
}

tag::LogPath Renderer::append_base_line(const SimEvent& e,
                                        std::uint64_t event_index,
                                        std::string& out) const {
  util::Rng rng(seed_ ^ (event_index * 0x2545f4914f6cdd1dull));

  std::string_view program;
  std::string_view body_tmpl;
  tag::LogPath path;
  if (e.is_alert()) {
    const tag::CategoryInfo& c =
        *categories_.at(static_cast<std::size_t>(e.category));
    program = c.program;
    body_tmpl = c.body_template;
    path = c.path;
  } else {
    const ChatterTemplate& t = chatter_templates(spec_->id).at(e.chatter_kind);
    program = t.program;
    body_tmpl = t.body;
    path = t.path;
  }
  // The body draws from the RNG before the syslog pid does but is
  // written after the header, so it is expanded first, into a scratch
  // that keeps its capacity from line to line. The renderer is shared
  // by the pipeline's worker threads, hence one scratch per thread.
  thread_local std::string body;
  body.clear();
  expand(body_tmpl, e, rng, body);
  const auto host = [&] { namer_->append_name(e.source, out); };

  switch (path) {
    case tag::LogPath::kSyslog:
      util::append_syslog(e.time, out);
      out.push_back(' ');
      host();
      out.push_back(' ');
      if (!program.empty()) {
        out.append(program);
        // Daemons log with a pid; the kernel does not.
        if (program != "kernel" && program != "check-disks") {
          out.push_back('[');
          util::append_uint(
              static_cast<std::uint64_t>(rng.uniform_i64(200, 32000)), out);
          out.push_back(']');
        }
        out.append(": ");
      }
      out.append(body);
      return path;
    case tag::LogPath::kBglRas: {
      util::append_uint(static_cast<std::uint64_t>(e.time / util::kUsPerSec),
                        out);
      out.push_back(' ');
      const util::CivilTime ct = util::to_civil(e.time);
      util::append_padded(static_cast<std::uint64_t>(ct.year), 4, out);
      out.push_back('.');
      util::append_padded(static_cast<std::uint64_t>(ct.month), 2, out);
      out.push_back('.');
      util::append_padded(static_cast<std::uint64_t>(ct.day), 2, out);
      out.push_back(' ');
      host();
      out.push_back(' ');
      util::append_bgl(e.time, out);
      out.push_back(' ');
      host();
      out.append(" RAS ");
      out.append(program.empty() ? "KERNEL" : program);
      out.push_back(' ');
      out.append(parse::severity_bgl_name(e.severity));
      out.push_back(' ');
      out.append(body);
      return path;
    }
    case tag::LogPath::kRsSyslog:
    case tag::LogPath::kRsDdn: {
      util::append_syslog(e.time, out);
      out.push_back(' ');
      host();
      out.push_back(' ');
      const bool kern = program == "kernel";
      out.append(path == tag::LogPath::kRsDdn ? "local0"
                                              : (kern ? "kern" : "daemon"));
      out.push_back('.');
      out.append(priority_name(e.severity));
      out.push_back(' ');
      if (!program.empty()) {
        out.append(program);
        out.append(": ");
      }
      out.append(body);
      return path;
    }
    case tag::LogPath::kRsEventRouter:
      util::append_iso(e.time, out);
      out.push_back(' ');
      out.append(program.empty() ? "ec_event" : program);
      out.append(" src:::");
      host();
      out.append(" svc:::");
      host();
      out.push_back(' ');
      out.append(body);
      return path;
  }
  throw std::logic_error("Renderer: unknown log path");
}

void Renderer::render_into(const SimEvent& e, std::uint64_t event_index,
                           std::string& out) const {
  const std::size_t begin = out.size();
  const tag::LogPath path = append_base_line(e, event_index, out);
  injector_.apply(out, begin, event_index, path, e.is_alert());
}

std::string Renderer::render(const SimEvent& e,
                             std::uint64_t event_index) const {
  std::string line;
  render_into(e, event_index, line);
  return line;
}

std::string Renderer::render_clean(const SimEvent& e,
                                   std::uint64_t event_index) const {
  std::string line;
  append_base_line(e, event_index, line);
  return line;
}

}  // namespace wss::sim
