#include "tag/metrics.hpp"

namespace wss::tag {

TagMetricsFlusher::TagMetricsFlusher()
    : lines_(&obs::registry().counter("wss_tag_lines_total")),
      hits_(&obs::registry().counter("wss_tag_hits_total")),
      prefilter_rejects_(
          &obs::registry().counter("wss_tag_prefilter_rejects_total")),
      regex_scans_(&obs::registry().counter("wss_tag_regex_scans_total")) {}

void TagMetricsFlusher::flush(const match::MatchScratch& s) {
  lines_->inc(s.tag_lines - last_lines_);
  hits_->inc(s.tag_hits - last_hits_);
  prefilter_rejects_->inc(s.prefilter_rejects - last_prefilter_rejects_);
  regex_scans_->inc(s.dfa_scans - last_regex_scans_);
  rebase(s);
}

void TagMetricsFlusher::rebase(const match::MatchScratch& s) {
  last_lines_ = s.tag_lines;
  last_hits_ = s.tag_hits;
  last_prefilter_rejects_ = s.prefilter_rejects;
  last_regex_scans_ = s.dfa_scans;
}

}  // namespace wss::tag
