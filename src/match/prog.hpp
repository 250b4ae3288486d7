// The compiled NFA program representation executed by the Pike VM
// (nfa.hpp): a flat instruction array produced by Thompson
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "match/pattern.hpp"

namespace wss::match {

enum class Op : std::uint8_t {
  kClass,  ///< consume one byte in cls, go to next instruction
  kSplit,  ///< fork to x and y
  kJump,   ///< go to x
  kBegin,  ///< zero-width: succeed only at text start
  kEnd,    ///< zero-width: succeed only at text end
  kWordB,  ///< zero-width: word boundary (x = 1 for \B)
  kMatch,  ///< accept
};

struct Inst {
  Op op;
  std::uint32_t x = 0;
  std::uint32_t y = 0;
  CharClass cls;
};

using Prog = std::vector<Inst>;

/// awk/Perl word-character test used by \b and \B.
inline bool is_word_byte(unsigned char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace wss::match
