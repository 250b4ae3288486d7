// Timestamp parsing for the three log formats in the study.
//
// syslog stamps ("Jun  3 15:42:50") have one-second granularity and no
// year; BG/L RAS stamps ("2005-06-03-15.42.50.363779") are microsecond
// granularity (Section 3.1). Parsers are corruption-tolerant: they
// return nullopt instead of throwing, because corrupted timestamps are
// one of the corruption modes the paper documents.
//
// Each stamp has a fixed layout, so each parser decodes it in one
// pass: it checks the length first, then the separator bytes at their
// fixed offsets, then reads each digit run with no per-digit bounds
// check. Bytes past the stamp are ignored (callers hand in the stamp's
// field or a longer prefix of the line). A stamp is rejected when it
// is short, when a separator or digit is wrong, or when a field is out
// of range (civil_fields_valid); nothing else rejects it.
#pragma once

#include <optional>
#include <string_view>

#include "util/time.hpp"

namespace wss::parse {

/// Parses "Mon dd HH:MM:SS" (syslog, RFC 3164 flavour). The year is
/// not in the stamp; `base_year` supplies it. Returns nullopt on any
/// malformation (bad month, out-of-range fields, truncation).
std::optional<util::TimeUs> parse_syslog_timestamp(std::string_view s,
                                                   int base_year);

/// Parses "YYYY-MM-DD-HH.MM.SS.ffffff" (BG/L RAS database export).
std::optional<util::TimeUs> parse_bgl_timestamp(std::string_view s);

/// Parses "YYYY-MM-DD HH:MM:SS" (ISO-ish, used by the Red Storm event
/// router path in our rendering).
std::optional<util::TimeUs> parse_iso_timestamp(std::string_view s);

/// Validates a civil date/time tuple (month/day ranges, leap years).
bool civil_fields_valid(int year, int month, int day, int hour, int minute,
                        int second);

}  // namespace wss::parse
