#include "stream/checkpoint.hpp"

#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace wss::stream {

std::string seal(std::string_view payload) {
  std::ostringstream trailer(std::ios::binary);
  CheckpointWriter w(trailer);
  w.u64(payload.size());
  w.u64(util::fnv1a(payload));
  w.u32(kSealMagic);
  return std::move(trailer).str();
}

std::string_view unseal(std::string_view bytes, const std::string& what) {
  if (bytes.size() < kSealSize) {
    throw std::runtime_error(what + ": truncated (no trailer)");
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - kSealSize);
  std::istringstream trailer(std::string(bytes.substr(payload.size())),
                             std::ios::binary);
  CheckpointReader r(trailer);
  const std::uint64_t size = r.u64();
  const std::uint64_t sum = r.u64();
  if (r.u32() != kSealMagic) {
    throw std::runtime_error(what + ": bad trailer magic");
  }
  if (size != payload.size()) {
    throw std::runtime_error(util::format(
        "%s: size mismatch (trailer says %llu, file has %zu payload bytes)",
        what.c_str(), static_cast<unsigned long long>(size), payload.size()));
  }
  if (sum != util::fnv1a(payload)) {
    throw std::runtime_error(what + ": checksum mismatch");
  }
  return payload;
}

void CheckpointWriter::raw(const void* p, std::size_t n) {
  os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
}

void CheckpointWriter::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 4);
}

void CheckpointWriter::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  raw(b, 8);
}

void CheckpointWriter::str(std::string_view s) {
  u64(s.size());
  raw(s.data(), s.size());
}

void CheckpointWriter::header() {
  u32(kCheckpointMagic);
  u32(kCheckpointVersion);
}

void CheckpointReader::raw(void* p, std::size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is_.gcount()) != n) {
    throw std::runtime_error("checkpoint: truncated file");
  }
}

std::uint8_t CheckpointReader::u8() {
  std::uint8_t v;
  raw(&v, 1);
  return v;
}

std::uint32_t CheckpointReader::u32() {
  std::uint8_t b[4];
  raw(b, 4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t CheckpointReader::u64() {
  std::uint8_t b[8];
  raw(b, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

std::string CheckpointReader::str() {
  const std::uint64_t n = u64();
  if (n > (1ull << 32)) {
    throw std::runtime_error("checkpoint: implausible string length");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  if (n > 0) raw(s.data(), static_cast<std::size_t>(n));
  return s;
}

void CheckpointReader::header() {
  if (u32() != kCheckpointMagic) {
    throw std::runtime_error("checkpoint: bad magic (not a wss checkpoint)");
  }
  const std::uint32_t version = u32();
  if (version != kCheckpointVersion) {
    throw std::runtime_error(util::format(
        "checkpoint: unsupported version %u (this build reads v%u; "
        "regenerate the checkpoint with this build)",
        version, kCheckpointVersion));
  }
}

void write_counter_table(
    CheckpointWriter& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  w.u64(counters.size());
  for (const auto& [name, value] : counters) {
    w.str(name);
    w.u64(value);
  }
}

void write_gauge_table(
    CheckpointWriter& w,
    const std::vector<std::pair<std::string, std::int64_t>>& gauges) {
  w.u64(gauges.size());
  for (const auto& [name, value] : gauges) {
    w.str(name);
    w.i64(value);
  }
}

std::vector<std::pair<std::string, std::uint64_t>> read_counter_table(
    CheckpointReader& r) {
  const std::uint64_t n = r.u64();
  if (n > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible counter count");
  }
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::uint64_t value = r.u64();
    out.emplace_back(std::move(name), value);
  }
  return out;
}

std::vector<std::pair<std::string, std::int64_t>> read_gauge_table(
    CheckpointReader& r) {
  const std::uint64_t n = r.u64();
  if (n > (1u << 20)) {
    throw std::runtime_error("checkpoint: implausible gauge count");
  }
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    const std::int64_t value = r.i64();
    out.emplace_back(std::move(name), value);
  }
  return out;
}

}  // namespace wss::stream
