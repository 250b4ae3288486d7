#include "dist/partial.hpp"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "util/file.hpp"
#include "util/strings.hpp"

namespace wss::dist {

namespace {

std::string render_payload(const PartialFile& partial) {
  std::ostringstream os(std::ios::binary);
  stream::CheckpointWriter w(os);
  w.u32(kPartialMagic);
  w.u32(kPartialVersion);
  w.u32(partial.assignment);
  w.u32(partial.worker);
  w.str(partial.instance);
  w.u64(partial.systems.size());
  for (const SystemPartial& sys : partial.systems) {
    w.u8(static_cast<std::uint8_t>(sys.system));
    w.u64(sys.chunks.size());
    for (const ChunkPartial& chunk : sys.chunks) {
      w.u64(chunk.chunk);
      save_result(w, chunk.result);
    }
  }
  stream::write_counter_table(w, partial.counter_deltas);
  if (!w.ok()) throw std::runtime_error("partial: serialization failed");
  return std::move(os).str();
}

PartialFile parse_payload(const std::string& payload) {
  std::istringstream is(payload, std::ios::binary);
  stream::CheckpointReader r(is);
  if (r.u32() != kPartialMagic) {
    throw std::runtime_error("partial: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kPartialVersion) {
    throw std::runtime_error(
        util::format("partial: unsupported version %u (expected %u)", version,
                     kPartialVersion));
  }
  PartialFile p;
  p.assignment = r.u32();
  p.worker = r.u32();
  p.instance = r.str();
  const std::uint64_t num_systems = r.u64();
  if (num_systems > parse::kNumSystems) {
    throw std::runtime_error("partial: implausible system count");
  }
  p.systems.reserve(num_systems);
  for (std::uint64_t s = 0; s < num_systems; ++s) {
    SystemPartial sys;
    const std::uint8_t id = r.u8();
    if (id >= parse::kNumSystems) {
      throw std::runtime_error("partial: bad system id");
    }
    sys.system = static_cast<parse::SystemId>(id);
    const std::uint64_t num_chunks = r.u64();
    if (num_chunks > (1ull << 32)) {
      throw std::runtime_error("partial: implausible chunk count");
    }
    sys.chunks.reserve(num_chunks);
    for (std::uint64_t c = 0; c < num_chunks; ++c) {
      ChunkPartial chunk;
      chunk.chunk = r.u64();
      chunk.result = load_result(r);
      sys.chunks.push_back(std::move(chunk));
    }
    p.systems.push_back(std::move(sys));
  }
  p.counter_deltas = stream::read_counter_table(r);
  return p;
}

}  // namespace

void save_result(stream::CheckpointWriter& w, const core::PipelineResult& r) {
  w.u8(static_cast<std::uint8_t>(r.system));
  w.u64(r.physical_messages);
  w.f64(r.weighted_messages);
  w.u64(r.physical_bytes);
  w.f64(r.weighted_bytes);
  w.u64(r.corrupted_source_lines);
  w.u64(r.invalid_timestamp_lines);
  w.u64(r.tagged_alerts.size());
  for (const filter::Alert& a : r.tagged_alerts) {
    w.i64(a.time);
    w.u32(a.source);
    w.u32(a.category);
    w.u8(static_cast<std::uint8_t>(a.type));
    w.u64(a.failure_id);
    w.f64(a.weight);
  }
  w.u64(r.weighted_alert_counts.size());
  for (const double v : r.weighted_alert_counts) w.f64(v);
  w.u64(r.physical_alert_counts.size());
  for (const std::uint64_t v : r.physical_alert_counts) w.u64(v);
  w.u64(r.tagging.true_positives);
  w.u64(r.tagging.false_positives);
  w.u64(r.tagging.true_negatives);
  w.u64(r.tagging.false_negatives);
  w.i64(r.categories_observed);
  w.u64(r.messages_by_source.size());
  for (const auto& [name, weight] : r.messages_by_source) {
    w.str(name);
    w.f64(weight);
  }
  w.f64(r.corrupted_source_weight);
}

core::PipelineResult load_result(stream::CheckpointReader& r) {
  core::PipelineResult out;
  const std::uint8_t id = r.u8();
  if (id >= parse::kNumSystems) {
    throw std::runtime_error("partial: bad system id in result");
  }
  out.system = static_cast<parse::SystemId>(id);
  out.physical_messages = r.u64();
  out.weighted_messages = r.f64();
  out.physical_bytes = r.u64();
  out.weighted_bytes = r.f64();
  out.corrupted_source_lines = r.u64();
  out.invalid_timestamp_lines = r.u64();
  const std::uint64_t num_alerts = r.u64();
  if (num_alerts > (1ull << 40)) {
    throw std::runtime_error("partial: implausible alert count");
  }
  out.tagged_alerts.reserve(num_alerts);
  for (std::uint64_t i = 0; i < num_alerts; ++i) {
    filter::Alert a;
    a.time = r.i64();
    a.source = r.u32();
    a.category = static_cast<std::uint16_t>(r.u32());
    a.type = static_cast<filter::AlertType>(r.u8());
    a.failure_id = r.u64();
    a.weight = r.f64();
    out.tagged_alerts.push_back(a);
  }
  const std::uint64_t num_weighted = r.u64();
  if (num_weighted > (1u << 20)) {
    throw std::runtime_error("partial: implausible category count");
  }
  out.weighted_alert_counts.reserve(num_weighted);
  for (std::uint64_t i = 0; i < num_weighted; ++i) {
    out.weighted_alert_counts.push_back(r.f64());
  }
  const std::uint64_t num_physical = r.u64();
  if (num_physical > (1u << 20)) {
    throw std::runtime_error("partial: implausible category count");
  }
  out.physical_alert_counts.reserve(num_physical);
  for (std::uint64_t i = 0; i < num_physical; ++i) {
    out.physical_alert_counts.push_back(r.u64());
  }
  out.tagging.true_positives = r.u64();
  out.tagging.false_positives = r.u64();
  out.tagging.true_negatives = r.u64();
  out.tagging.false_negatives = r.u64();
  out.categories_observed = static_cast<int>(r.i64());
  const std::uint64_t num_sources = r.u64();
  if (num_sources > (1u << 24)) {
    throw std::runtime_error("partial: implausible source count");
  }
  for (std::uint64_t i = 0; i < num_sources; ++i) {
    std::string name = r.str();
    const double weight = r.f64();
    out.messages_by_source.emplace(std::move(name), weight);
  }
  out.corrupted_source_weight = r.f64();
  return out;
}

void write_partial(const PartialFile& partial, const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::string bytes = render_payload(partial);
  bytes += stream::seal(bytes);
  util::publish_file(path, bytes);
}

PartialFile read_partial(const std::string& path) {
  std::string bytes = util::read_file(path);
  bytes.resize(stream::unseal(bytes, "partial: " + path).size());
  try {
    return parse_payload(bytes);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

bool partial_is_valid(const std::string& path, std::uint32_t assignment) {
  try {
    return read_partial(path).assignment == assignment;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace wss::dist
