#include "logio/reader.hpp"

namespace wss::logio {

int YearTracker::on_month(int month) {
  if (month >= 1 && month <= 12) {
    // A backwards month jump of more than six (Dec -> Jan, or a burst
    // of out-of-order lines straddling New Year) signals rollover;
    // smaller regressions are out-of-order lines within one year.
    if (last_month_ != 0 && month < last_month_ - 6) {
      ++year_;
      ++rollovers_;
    }
    last_month_ = month;
  }
  return year_;
}

}  // namespace wss::logio
