// Whole-file reads and atomic publication: the one path every output
// file (checkpoints, metrics exports, manifests, partials, goldens,
// generated logs) takes to disk.
#pragma once

#include <string>
#include <string_view>

namespace wss::util {

/// The whole content of `path`. Throws std::runtime_error
/// ("cannot open <path>" / "read failed: <path>").
std::string read_file(const std::string& path);

/// Replaces `path` with `bytes` atomically: a reader, or a restore
/// after a crash mid-write, sees the old file or the new one, never a
/// torn mix, also after a power cut. Writes
/// "<path>.<host>.p<pid>.<n>.tmp" -- unique per host, process and call,
/// so writers sharing a directory over a network filesystem never meet
/// in one tmp file -- fsyncs it, renames it over `path` and fsyncs the
/// directory. The directory must exist. On failure the tmp file is
/// removed and a one-line std::runtime_error is thrown ("cannot open
/// <tmp>", "write failed: <tmp>" or "cannot publish <path>: <why>").
void publish_file(const std::string& path, std::string_view bytes);

}  // namespace wss::util
