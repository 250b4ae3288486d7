#include "parse/record.hpp"

#include "util/strings.hpp"

namespace wss::parse {

std::string_view system_name(SystemId id) {
  switch (id) {
    case SystemId::kBlueGeneL:
      return "Blue Gene/L";
    case SystemId::kThunderbird:
      return "Thunderbird";
    case SystemId::kRedStorm:
      return "Red Storm";
    case SystemId::kSpirit:
      return "Spirit (ICC2)";
    case SystemId::kLiberty:
      return "Liberty";
  }
  return "?";
}

std::string_view system_short_name(SystemId id) {
  switch (id) {
    case SystemId::kBlueGeneL:
      return "bgl";
    case SystemId::kThunderbird:
      return "tbird";
    case SystemId::kRedStorm:
      return "rstorm";
    case SystemId::kSpirit:
      return "spirit";
    case SystemId::kLiberty:
      return "liberty";
  }
  return "?";
}

std::string_view severity_bgl_name(Severity s) {
  switch (s) {
    case Severity::kNone:
      return "-";
    case Severity::kDebug:
      return "DEBUG";
    case Severity::kInfo:
      return "INFO";
    case Severity::kNotice:
      return "NOTICE";
    case Severity::kWarning:
      return "WARNING";
    case Severity::kError:
      return "ERROR";
    case Severity::kSevere:
      return "SEVERE";
    case Severity::kCrit:
      return "CRIT";
    case Severity::kAlert:
      return "ALERT";
    case Severity::kEmerg:
      return "EMERG";
    case Severity::kFailure:
      return "FAILURE";
    case Severity::kFatal:
      return "FATAL";
  }
  return "?";
}

std::string_view severity_syslog_name(Severity s) {
  switch (s) {
    case Severity::kError:
      return "ERR";
    default:
      return severity_bgl_name(s);
  }
}

std::optional<Severity> parse_severity(std::string_view s) {
  using util::fold_key;
  if (s.size() > 8) return std::nullopt;  // no spelling is longer
  switch (fold_key(s)) {
    case fold_key("debug"): return Severity::kDebug;
    case fold_key("info"): return Severity::kInfo;
    case fold_key("notice"): return Severity::kNotice;
    case fold_key("warning"):
    case fold_key("warn"): return Severity::kWarning;
    case fold_key("error"):
    case fold_key("err"): return Severity::kError;
    case fold_key("severe"): return Severity::kSevere;
    case fold_key("crit"):
    case fold_key("critical"): return Severity::kCrit;
    case fold_key("alert"): return Severity::kAlert;
    case fold_key("emerg"):
    case fold_key("panic"): return Severity::kEmerg;
    case fold_key("failure"): return Severity::kFailure;
    case fold_key("fatal"): return Severity::kFatal;
    default: return std::nullopt;
  }
}

}  // namespace wss::parse
