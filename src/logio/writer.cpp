#include "logio/writer.hpp"

#include <map>

#include "compress/codec.hpp"
#include "util/file.hpp"

namespace wss::logio {

namespace {

void write_file(const std::filesystem::path& path, const std::string& text,
                bool compressed, WriteResult& result) {
  const std::string packed = compressed ? compress::compress(text) : "";
  const std::string_view bytes = compressed ? packed : text;
  util::publish_file(path.string(), bytes);
  result.bytes_written += bytes.size();
  ++result.files;
}

}  // namespace

WriteResult write_log(const sim::Simulator& simulator,
                      const std::filesystem::path& path,
                      const WriteOptions& opts) {
  WriteResult result;
  const char* ext = opts.compressed ? "messages.wsc" : "messages";

  if (opts.per_source_dirs) {
    // syslog-ng layout: one subdirectory per source node.
    std::map<std::uint32_t, std::string> per_source;
    for (std::size_t i = 0; i < simulator.events().size(); ++i) {
      const sim::SimEvent& e = simulator.events()[i];
      auto& text = per_source[e.source];
      simulator.renderer().render_into(e, i, text);
      text.push_back('\n');
      ++result.lines;
    }
    for (const auto& [source, text] : per_source) {
      const auto dir = path / simulator.namer().name(source);
      std::filesystem::create_directories(dir);
      write_file(dir / ext, text, opts.compressed, result);
    }
    return result;
  }

  std::string text;
  for (std::size_t i = 0; i < simulator.events().size(); ++i) {
    simulator.renderer().render_into(simulator.events()[i], i, text);
    text.push_back('\n');
    ++result.lines;
  }
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path());
  }
  write_file(path, text, opts.compressed, result);
  return result;
}

std::string read_log_text(const std::filesystem::path& path) {
  std::string data = util::read_file(path.string());
  if (path.extension() == ".wsc") return compress::decompress(data);
  return data;
}

}  // namespace wss::logio
