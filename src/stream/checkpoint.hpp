// Binary serialization for streaming checkpoints.
//
// A checkpoint must round-trip *bit-exactly*: the restored engine has
// to produce the same FP sums, the same reservoir decisions, and the
// same filter verdicts as an uninterrupted run, or the
// checkpoint -> restore -> finish equivalence guarantee (and the test
// that enforces it) breaks. Doubles are therefore written as their raw
// IEEE-754 bit patterns, never through decimal text, and every integer
// is fixed-width little-endian so a checkpoint is portable across
// builds of the same version.
//
// The format is deliberately dumb: a magic/version header, then a flat
// sequence of typed fields in a fixed order defined by the save()/
// load() pairs of each streaming class, then (since v4) the seal()
// trailer -- the one dist partial files carry too. There is no schema
// evolution; a version bump invalidates old checkpoints (they cover
// hours of stream, not years of archive).
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wss::stream {

/// Format tag written at the head of every checkpoint file.
/// v2: adds the obs registry counter/gauge tables and the filter's
/// per-category tallies + eviction count (restore-and-finish reports
/// the same --metrics snapshot as an uninterrupted run).
/// v3: adds the prediction stage -- PredictOptions always, and when
/// prediction is enabled the full miner/predictor/pending state.
/// v4: v3 plus the seal() trailer; written via util::publish_file.
/// v5: the episode miner is gone -- no miner state, and PredictOptions
/// carries only enabled, train_alerts and horizon_us.
/// v6: a filled Table 2 compression sample is saved as its raw size and
/// fraction, not its text (tens of kB per checkpoint, not megabytes).
inline constexpr std::uint32_t kCheckpointMagic = 0x57535343u;  // "WSSC"
inline constexpr std::uint32_t kCheckpointVersion = 6;

/// The 20-byte trailer that seals `payload` when appended to it: u64
/// payload size, u64 util::fnv1a of the payload, u32 end magic.
inline constexpr std::uint32_t kSealMagic = 0x57535345u;  // "WSSE"
inline constexpr std::size_t kSealSize = 8 + 8 + 4;
std::string seal(std::string_view payload);

/// Checks the trailer of `bytes` and returns the payload it covers;
/// throws one line "<what>: truncated (no trailer)" / "bad trailer
/// magic" / "size mismatch (...)" / "checksum mismatch".
std::string_view unseal(std::string_view bytes, const std::string& what);

/// Little-endian fixed-width field writer.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& os) : os_(os) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);

  /// Writes the standard header.
  void header();

  bool ok() const { return static_cast<bool>(os_); }

 private:
  void raw(const void* p, std::size_t n);
  std::ostream& os_;
};

/// Reader mirroring CheckpointWriter. Every accessor throws
/// std::runtime_error on truncation; header() additionally validates
/// magic and version.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& is) : is_(is) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str();

  /// Reads and validates the standard header (any other version is
  /// refused naming both versions and the cure).
  void header();

 private:
  void raw(void* p, std::size_t n);
  std::istream& is_;
};

// ---- Shared metric-table serialization (checkpoint v2 payloads) ----
//
// The obs registry's counter/gauge tables travel in two places: stream
// checkpoints (so a restored run reports the same --metrics snapshot)
// and distributed partial-result files (so `wss merge` can fold each
// worker's deltas back into one registry). Both use this one format:
// u64 count, then (str name, u64/i64 value) pairs in sorted-name order.

void write_counter_table(
    CheckpointWriter& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters);
void write_gauge_table(
    CheckpointWriter& w,
    const std::vector<std::pair<std::string, std::int64_t>>& gauges);

/// Readers validate the count against a sanity bound (1M entries) and
/// throw std::runtime_error on implausible tables or truncation.
std::vector<std::pair<std::string, std::uint64_t>> read_counter_table(
    CheckpointReader& r);
std::vector<std::pair<std::string, std::int64_t>> read_gauge_table(
    CheckpointReader& r);

}  // namespace wss::stream
