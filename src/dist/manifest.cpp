#include "dist/manifest.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "dist/json.hpp"
#include "util/file.hpp"
#include "util/strings.hpp"

namespace wss::dist {

namespace {

std::optional<parse::SystemId> system_from_short_name(std::string_view name) {
  for (const auto id : parse::kAllSystems) {
    if (parse::system_short_name(id) == name) return id;
  }
  return std::nullopt;
}

/// Rejects documents whose format/version tags this build does not
/// speak. Kept as one helper so study.json and assignment files fail
/// with identical wording.
void check_format(const JsonValue& doc, const std::string& path) {
  const std::string& format = doc.at("format").as_string();
  if (format != kManifestFormat) {
    throw std::runtime_error(
        util::format("manifest: %s: unknown format \"%s\" (expected %s)",
                     path.c_str(), format.c_str(),
                     std::string(kManifestFormat).c_str()));
  }
  const std::uint64_t version = doc.at("version").as_u64();
  if (version != kManifestVersion) {
    throw std::runtime_error(util::format(
        "manifest: %s: unsupported version %llu (expected %u)", path.c_str(),
        static_cast<unsigned long long>(version), kManifestVersion));
  }
}

std::string render_study_json(const StudyManifest& m) {
  std::string out = "{\n";
  out += util::format("  \"format\": %s,\n",
                      json_quote(kManifestFormat).c_str());
  out += util::format("  \"version\": %u,\n", kManifestVersion);
  out += util::format("  \"split_by\": %s,\n",
                      json_quote(split_axis_name(m.axis)).c_str());
  out += util::format("  \"num_splits\": %u,\n", m.num_splits);
  const auto& sim = m.options.sim;
  out += "  \"study\": {\n";
  out += util::format("    \"seed\": %llu,\n",
                      static_cast<unsigned long long>(sim.seed));
  out += util::format("    \"category_cap\": %llu,\n",
                      static_cast<unsigned long long>(sim.category_cap));
  out += util::format("    \"chatter_events\": %llu,\n",
                      static_cast<unsigned long long>(sim.chatter_events));
  out += util::format("    \"inject_corruption\": %s,\n",
                      sim.inject_corruption ? "true" : "false");
  out += util::format("    \"threshold_us\": %lld,\n",
                      static_cast<long long>(sim.threshold_us));
  out += util::format("    \"chunk_events\": %llu,\n",
                      static_cast<unsigned long long>(
                          m.options.pipeline.chunk_events));
  out += util::format("    \"collect_source_tallies\": %s\n",
                      m.options.pipeline.collect_source_tallies ? "true"
                                                                : "false");
  out += "  },\n";
  out += "  \"systems\": [\n";
  for (std::size_t i = 0; i < m.systems.size(); ++i) {
    out += util::format(
        "    {\"name\": %s, \"chunks\": %llu}%s\n",
        json_quote(parse::system_short_name(m.systems[i])).c_str(),
        static_cast<unsigned long long>(m.chunk_counts[i]),
        i + 1 < m.systems.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

std::string render_assignment_json(const Assignment& a) {
  std::string out = "{\n";
  out += util::format("  \"format\": %s,\n",
                      json_quote(kManifestFormat).c_str());
  out += util::format("  \"version\": %u,\n", kManifestVersion);
  out += util::format("  \"id\": %u,\n", a.id);
  out += "  \"slices\": [\n";
  for (std::size_t s = 0; s < a.slices.size(); ++s) {
    const Slice& slice = a.slices[s];
    out += util::format(
        "    {\"system\": %s, \"ranges\": [",
        json_quote(parse::system_short_name(slice.system)).c_str());
    for (std::size_t r = 0; r < slice.ranges.size(); ++r) {
      out += util::format("[%llu, %llu]%s",
                          static_cast<unsigned long long>(
                              slice.ranges[r].begin),
                          static_cast<unsigned long long>(slice.ranges[r].end),
                          r + 1 < slice.ranges.size() ? ", " : "");
    }
    out += util::format("]}%s\n", s + 1 < a.slices.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

Assignment parse_assignment_json(const JsonValue& doc, const std::string& path,
                                 const StudyManifest& m) {
  Assignment a;
  a.id = static_cast<std::uint32_t>(doc.at("id").as_u64());
  for (const JsonValue& js : doc.at("slices").as_array()) {
    Slice slice;
    const std::string& name = js.at("system").as_string();
    const auto id = system_from_short_name(name);
    if (!id) {
      throw std::runtime_error(
          util::format("manifest: %s: unknown system \"%s\"", path.c_str(),
                       name.c_str()));
    }
    slice.system = *id;
    const std::uint64_t total = m.chunks_of(slice.system);
    std::uint64_t prev_end = 0;
    bool first = true;
    for (const JsonValue& jr : js.at("ranges").as_array()) {
      const auto& pair = jr.as_array();
      if (pair.size() != 2) {
        throw std::runtime_error("manifest: " + path +
                                 ": range is not a [begin, end) pair");
      }
      ChunkRange range{pair[0].as_u64(), pair[1].as_u64()};
      if (range.begin >= range.end || range.end > total ||
          (!first && range.begin < prev_end)) {
        throw std::runtime_error(util::format(
            "manifest: %s: bad chunk range [%llu, %llu) for %s (%llu chunks)",
            path.c_str(), static_cast<unsigned long long>(range.begin),
            static_cast<unsigned long long>(range.end), name.c_str(),
            static_cast<unsigned long long>(total)));
      }
      prev_end = range.end;
      first = false;
      slice.ranges.push_back(range);
    }
    if (!slice.ranges.empty()) a.slices.push_back(std::move(slice));
  }
  return a;
}

/// Every covered system's chunk space [0, C) must be tiled exactly
/// once by the union of all assignments -- the merge-order determinism
/// guarantee is meaningless over a partition with holes or overlaps.
void check_exact_partition(const StudyManifest& m, const std::string& dir) {
  for (std::size_t i = 0; i < m.systems.size(); ++i) {
    std::vector<ChunkRange> ranges;
    for (const Assignment& a : m.assignments) {
      for (const Slice& slice : a.slices) {
        if (slice.system != m.systems[i]) continue;
        ranges.insert(ranges.end(), slice.ranges.begin(), slice.ranges.end());
      }
    }
    std::sort(ranges.begin(), ranges.end(),
              [](const ChunkRange& a, const ChunkRange& b) {
                return a.begin < b.begin;
              });
    std::uint64_t next = 0;
    for (const ChunkRange& r : ranges) {
      if (r.begin != next) {
        throw std::runtime_error(util::format(
            "manifest: %s: assignments do not partition %s chunks (gap or "
            "overlap at chunk %llu)",
            dir.c_str(),
            std::string(parse::system_short_name(m.systems[i])).c_str(),
            static_cast<unsigned long long>(next)));
      }
      next = r.end;
    }
    if (next != m.chunk_counts[i]) {
      throw std::runtime_error(util::format(
          "manifest: %s: assignments cover %llu of %llu %s chunks",
          dir.c_str(), static_cast<unsigned long long>(next),
          static_cast<unsigned long long>(m.chunk_counts[i]),
          std::string(parse::system_short_name(m.systems[i])).c_str()));
    }
  }
}

}  // namespace

std::string_view split_axis_name(SplitAxis axis) {
  switch (axis) {
    case SplitAxis::kSystem: return "system";
    case SplitAxis::kCategory: return "category";
    case SplitAxis::kTime: return "time";
  }
  return "unknown";
}

std::optional<SplitAxis> parse_split_axis(std::string_view name) {
  if (name == "system") return SplitAxis::kSystem;
  if (name == "category") return SplitAxis::kCategory;
  if (name == "time") return SplitAxis::kTime;
  return std::nullopt;
}

std::uint64_t Slice::chunk_count() const {
  std::uint64_t n = 0;
  for (const ChunkRange& r : ranges) n += r.end - r.begin;
  return n;
}

std::uint64_t StudyManifest::chunks_of(parse::SystemId id) const {
  for (std::size_t i = 0; i < systems.size(); ++i) {
    if (systems[i] == id) return chunk_counts[i];
  }
  throw std::runtime_error(
      util::format("manifest: system %s not covered by this study",
                   std::string(parse::system_short_name(id)).c_str()));
}

std::string study_json_path(const std::string& dir) {
  return dir + "/study.json";
}

std::string assignment_json_path(const std::string& dir, std::uint32_t id) {
  return dir + util::format("/assignment_%03u.json", id);
}

std::string claim_path(const std::string& dir, std::uint32_t id) {
  return dir + util::format("/claims/assignment_%03u.claim", id);
}

std::string partial_path(const std::string& dir, std::uint32_t id) {
  return dir + util::format("/partials/assignment_%03u.partial", id);
}

void write_manifest(const StudyManifest& manifest, const std::string& dir) {
  std::filesystem::create_directories(dir);
  util::publish_file(study_json_path(dir), render_study_json(manifest));
  for (const Assignment& a : manifest.assignments) {
    util::publish_file(assignment_json_path(dir, a.id),
                       render_assignment_json(a));
  }
}

StudyManifest load_manifest(const std::string& dir) {
  const std::string study_path = study_json_path(dir);
  const std::string study_text = util::read_file(study_path);
  JsonValue doc;
  try {
    doc = parse_json(study_text);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(study_path + ": " + e.what());
  }
  check_format(doc, study_path);

  StudyManifest m;
  const std::string& axis_name = doc.at("split_by").as_string();
  const auto axis = parse_split_axis(axis_name);
  if (!axis) {
    throw std::runtime_error(util::format("manifest: %s: unknown split axis "
                                          "\"%s\"",
                                          study_path.c_str(),
                                          axis_name.c_str()));
  }
  m.axis = *axis;
  m.num_splits = static_cast<std::uint32_t>(doc.at("num_splits").as_u64());
  if (m.num_splits == 0) {
    throw std::runtime_error("manifest: " + study_path + ": num_splits is 0");
  }

  const JsonValue& study = doc.at("study");
  m.options.sim.seed = study.at("seed").as_u64();
  m.options.sim.category_cap = study.at("category_cap").as_u64();
  m.options.sim.chatter_events = study.at("chatter_events").as_u64();
  m.options.sim.inject_corruption = study.at("inject_corruption").as_bool();
  m.options.sim.threshold_us = study.at("threshold_us").as_i64();
  m.options.pipeline.chunk_events =
      static_cast<std::size_t>(study.at("chunk_events").as_u64());
  if (m.options.pipeline.chunk_events == 0) {
    throw std::runtime_error("manifest: " + study_path + ": chunk_events is 0");
  }
  m.options.pipeline.collect_source_tallies =
      study.at("collect_source_tallies").as_bool();

  for (const JsonValue& js : doc.at("systems").as_array()) {
    const std::string& name = js.at("name").as_string();
    const auto id = system_from_short_name(name);
    if (!id) {
      throw std::runtime_error(util::format(
          "manifest: %s: unknown system \"%s\"", study_path.c_str(),
          name.c_str()));
    }
    if (std::find(m.systems.begin(), m.systems.end(), *id) !=
        m.systems.end()) {
      throw std::runtime_error(util::format(
          "manifest: %s: duplicate system \"%s\"", study_path.c_str(),
          name.c_str()));
    }
    m.systems.push_back(*id);
    m.chunk_counts.push_back(js.at("chunks").as_u64());
  }
  if (m.systems.empty()) {
    throw std::runtime_error("manifest: " + study_path + ": no systems");
  }

  m.assignments.reserve(m.num_splits);
  for (std::uint32_t id = 0; id < m.num_splits; ++id) {
    const std::string path = assignment_json_path(dir, id);
    const std::string text = util::read_file(path);
    JsonValue adoc;
    try {
      adoc = parse_json(text);
    } catch (const std::runtime_error& e) {
      throw std::runtime_error(path + ": " + e.what());
    }
    check_format(adoc, path);
    Assignment a = parse_assignment_json(adoc, path, m);
    if (a.id != id) {
      throw std::runtime_error(util::format(
          "manifest: %s: assignment id %u does not match file name (%u)",
          path.c_str(), a.id, id));
    }
    m.assignments.push_back(std::move(a));
  }
  check_exact_partition(m, dir);
  return m;
}

}  // namespace wss::dist
