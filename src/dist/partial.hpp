// Partial-result files: one worker's computed slice of a study.
//
// A partial file carries the *per-chunk* PipelineResults of every
// chunk the assignment covers, not a pre-folded sum. This is the load-
// bearing decision of the whole subsystem: event weights are
// (paper count) / (generated count) doubles and FP addition is not
// associative, so folding a worker's chunks locally and then folding
// workers would accumulate in a different order than a single-process
// run. By shipping raw chunk partials, `wss merge` can fold ALL chunks
// of a system in global chunk-index order -- the exact order
// run_pipeline and ParallelPipeline use -- and the merged bytes are
// identical for ANY partition of chunks across workers.
//
// Wire format (little-endian, via stream::CheckpointWriter):
//
//   payload:
//     u32 magic "WSSP", u32 version
//     u32 assignment id, u32 worker id, str instance
//     u64 system count; per system:
//       u8 system id; u64 chunk count; per chunk:
//         u64 chunk index; serialized PipelineResult
//     counter-delta table (stream::write_counter_table)
//   trailer: stream::seal's 20 bytes, the one checkpoints carry too --
//     u64 payload size, u64 FNV-1a of payload, u32 end magic "WSSE"
//
// The trailer detects torn writes: a partial whose size or checksum
// disagrees is rejected by read_partial, the merge names it corrupt,
// and the assignment is rerun. Publication is util::publish_file (tmp
// + atomic rename), so a complete file never coexists with a half-
// written one under the final name -- the trailer guards against the
// crash-during-rename filesystems that do not guarantee rename
// durability, and against truncation by the fault-injection tests.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "stream/checkpoint.hpp"

namespace wss::dist {

inline constexpr std::uint32_t kPartialMagic = 0x57535350u;  // "WSSP"
inline constexpr std::uint32_t kPartialVersion = 1;

/// One chunk's un-finalized pipeline partial.
struct ChunkPartial {
  std::uint64_t chunk = 0;  ///< global chunk index within its system
  core::PipelineResult result;
};

/// All chunks of one system computed by this assignment, ascending by
/// chunk index.
struct SystemPartial {
  parse::SystemId system = parse::SystemId::kBlueGeneL;
  std::vector<ChunkPartial> chunks;
};

/// Everything one worker publishes for one assignment.
struct PartialFile {
  std::uint32_t assignment = 0;
  std::uint32_t worker = 0;
  std::string instance;
  std::vector<SystemPartial> systems;
  /// wss_* counter increments attributable to this worker's slice
  /// (end-of-run minus start-of-run values); `wss merge` folds these
  /// back into the local registry so the merged --metrics snapshot
  /// matches a single-process run.
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

/// Serializes one PipelineResult (field-by-field; see partial.cpp for
/// the order). Shared with tests that round-trip results directly.
void save_result(stream::CheckpointWriter& w, const core::PipelineResult& r);
core::PipelineResult load_result(stream::CheckpointReader& r);

/// Seals `partial` and publishes it at `path` via util::publish_file,
/// whose per-writer tmp name keeps racing writers (stale-claim
/// takeover) apart. Throws std::runtime_error on I/O failure.
void write_partial(const PartialFile& partial, const std::string& path);

/// Reads and validates a partial file; throws std::runtime_error on
/// missing file, short trailer, size/checksum mismatch, or a payload
/// this version cannot parse.
PartialFile read_partial(const std::string& path);

/// True when `path` holds a complete, checksum-valid partial for
/// `assignment` (quiet probe used for idempotent worker reruns).
bool partial_is_valid(const std::string& path, std::uint32_t assignment);

}  // namespace wss::dist
