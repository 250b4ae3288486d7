// Shared setup for the reproduction benches.
//
// Every table/figure bench prints three things:
//   1. the reproduced artifact (aligned table or ASCII figure),
//   2. the paper's reference values alongside the measured ones,
//   3. a machine-readable CSV block bracketed by BEGIN/END markers.
#pragma once

#include <iostream>
#include <string>

#include "core/experiments.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "util/strings.hpp"

namespace wss::bench {

/// Standard volume for the bench suite: large enough that every
/// calibrated number lands, small enough that the full suite runs in
/// well under a minute.
inline core::StudyOptions standard_options() {
  core::StudyOptions o;
  o.sim.category_cap = 100000;
  o.sim.chatter_events = 150000;
  return o;
}

/// Prints the standard bench header.
inline void header(const std::string& id, const std::string& what) {
  std::cout << "==== " << id << ": " << what << " ====\n"
            << "(What Supercomputers Say, DSN 2007 -- wss reproduction)\n\n";
}

inline void begin_csv(const std::string& id) {
  std::cout << "BEGIN CSV " << id << "\n";
}

inline void end_csv(const std::string& id) {
  std::cout << "END CSV " << id << "\n";
}

}  // namespace wss::bench
