// The parsed log record model shared by every parser, the tag engine,
// and the simulator's renderers.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "util/time.hpp"

namespace wss::parse {

/// The five systems of the study (Table 1), in the paper's order.
enum class SystemId : std::uint8_t {
  kBlueGeneL = 0,
  kThunderbird = 1,
  kRedStorm = 2,
  kSpirit = 3,
  kLiberty = 4,
};

inline constexpr std::size_t kNumSystems = 5;

/// All systems, for iteration.
inline constexpr std::array<SystemId, kNumSystems> kAllSystems = {
    SystemId::kBlueGeneL, SystemId::kThunderbird, SystemId::kRedStorm,
    SystemId::kSpirit, SystemId::kLiberty};

/// Display name ("Blue Gene/L", "Thunderbird", ...).
std::string_view system_name(SystemId id);

/// Short machine-friendly name ("bgl", "tbird", "rstorm", "spirit",
/// "liberty").
std::string_view system_short_name(SystemId id);

/// Message severity. One enum covers both vocabularies in the paper:
/// the BG/L RAS levels (Table 5: FATAL, FAILURE, SEVERE, ERROR,
/// WARNING, INFO) and the syslog levels (Table 6: EMERG..DEBUG).
/// kNone marks records whose log path does not record severity at all
/// (Thunderbird, Spirit, and Liberty syslogs, per Section 3.2).
enum class Severity : std::uint8_t {
  kNone = 0,
  kDebug,
  kInfo,
  kNotice,
  kWarning,
  kError,   // printed "ERROR" by BG/L, "ERR" by syslog
  kSevere,  // BG/L only
  kCrit,    // syslog only
  kAlert,   // syslog only
  kEmerg,   // syslog only
  kFailure, // BG/L only
  kFatal,   // BG/L only
};

/// BG/L RAS spelling ("FATAL", "FAILURE", ..., "INFO"; "-" for kNone).
std::string_view severity_bgl_name(Severity s);

/// syslog spelling ("EMERG", ..., "DEBUG"; "-" for kNone).
std::string_view severity_syslog_name(Severity s);

/// Parses either vocabulary, case-insensitively. Returns nullopt for
/// unknown spellings.
std::optional<Severity> parse_severity(std::string_view s);

/// One parsed log message, as views into the line it was parsed from.
///
/// Lifetime: `source`, `program`, `body` and `raw` point into the
/// parser's input line, so a record is valid only while that line is.
/// Every route parses a line, reads the record and is done with both
/// before the line's buffer changes (core::detail::read_line); a caller
/// that keeps anything past its line copies it (StreamPipeline::intern
/// and the per-source tally build their own std::string keys).
struct LogRecord {
  util::TimeUs time = 0;          ///< event time (0 if unparseable)
  SystemId system = SystemId::kBlueGeneL;
  Severity severity = Severity::kNone;
  std::string_view source;        ///< attributed node/host ("" if corrupted)
  std::string_view program;       ///< syslog tag or BG/L facility
  std::string_view body;          ///< free-text message body
  std::string_view raw;           ///< the original line, verbatim

  bool timestamp_valid = false;   ///< time could be parsed
  bool source_corrupted = false;  ///< source field garbled / missing

  /// The month the line's first three bytes name (1..12), 0 if none,
  /// whether or not the stamp parses: what logio::YearTracker::on_month
  /// reads.
  std::uint8_t month = 0;
  /// A syslog stamp still missing its year: `time` holds its offset
  /// into `month` (parse_syslog_stamp), and `timestamp_valid` is
  /// provisional, since Feb 29 depends on the year. apply_year
  /// (parse/dispatch.hpp) completes the record.
  bool year_pending = false;

  /// Returns the record to its default state, viewing `line` as raw.
  void reset(SystemId sys, std::string_view line) {
    *this = LogRecord{};
    system = sys;
    raw = line;
  }
};

}  // namespace wss::parse
