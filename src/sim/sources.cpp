#include "sim/sources.hpp"

#include <stdexcept>
#include <string_view>

#include "util/strings.hpp"

namespace wss::sim {

SourceNamer::SourceNamer(parse::SystemId system, std::uint32_t n_sources)
    : system_(system), n_(n_sources) {
  if (n_sources < 16) {
    throw std::invalid_argument("SourceNamer: need at least 16 sources");
  }
  n_admin_ = system == parse::SystemId::kBlueGeneL ? 2 : 8;
}

std::string SourceNamer::name(std::uint32_t id) const {
  std::string s;
  append_name(id, s);
  return s;
}

void SourceNamer::append_name(std::uint32_t id, std::string& out) const {
  if (id >= n_) throw std::out_of_range("SourceNamer: bad source id");
  const std::uint32_t admin_rank = id >= first_admin() ? id - first_admin() : 0;
  // `prefix` then the decimal `n`: the shape of most names below.
  const auto numbered = [&out](std::string_view prefix, std::uint32_t n) {
    out.append(prefix);
    util::append_uint(n, out);
  };
  switch (system_) {
    case parse::SystemId::kBlueGeneL: {
      if (is_admin(id)) {
        // The two service-node MMCS processes per rack pair: "R01-SVC".
        out.push_back('R');
        util::append_padded(admin_rank, 2, out);
        out.append("-SVC");
        return;
      }
      // Location codes: rack / midplane / node card / chip, as
      // "R02-M1-N5-C:J18-U02".
      const std::uint32_t chip = id % 2;
      out.push_back('R');
      util::append_padded(id / 32, 2, out);
      numbered("-M", (id / 16) % 2);
      numbered("-N", (id / 2) % 8);
      out.append("-C:J");
      util::append_padded(12 + chip * 6, 2, out);
      out.append("-U");
      util::append_padded(1 + chip, 2, out);
      return;
    }
    case parse::SystemId::kThunderbird:
      if (!is_admin(id)) {
        numbered("tbird-cn", id + 1);
      } else if (admin_rank == 0) {
        out.append("tbird-admin1");
      } else if (admin_rank == 1) {
        out.append("tbird-sm1");
      } else {
        numbered("tbird-login", admin_rank - 1);
      }
      return;
    case parse::SystemId::kRedStorm:
      if (is_admin(id)) {
        if (admin_rank == 0) {
          out.append("smw");
        } else if (admin_rank < 4) {
          numbered("login", admin_rank);
        } else {
          numbered("ddn", admin_rank - 3);
        }
        return;
      }
      // Cray-style node names: "c3-1c0s2n1".
      numbered("c", id / 64);
      numbered("-", (id / 16) % 4);
      numbered("c", (id / 8) % 2);
      numbered("s", (id / 2) % 4);
      numbered("n", id % 2);
      return;
    case parse::SystemId::kSpirit:
      if (is_admin(id)) return numbered("sadmin", admin_rank + 1);
      // Plain index naming so the paper's special nodes keep their
      // names: id 373 -> "sn373", id 325 -> "sn325".
      return numbered("sn", id);
    case parse::SystemId::kLiberty:
      if (is_admin(id)) return numbered("ladmin", admin_rank + 1);
      return numbered("ln", id);
  }
  out.push_back('?');
}

}  // namespace wss::sim
