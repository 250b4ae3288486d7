#include "sim/generator.hpp"

#include <algorithm>

#include "sim/incident.hpp"

namespace wss::sim {

Simulator::Simulator(parse::SystemId system, SimOptions opts)
    : spec_(&system_spec(system)),
      opts_(opts),
      namer_(system, spec_->n_sources) {
  util::Rng rng(opts_.seed ^ (static_cast<std::uint64_t>(system) << 32));

  // Workload context (used by kJobBursts categories and examples).
  util::Rng jobs_rng = rng.fork();
  jobs_ = generate_jobs(*spec_, jobs_rng,
                        /*count=*/200 + 20 * static_cast<std::size_t>(
                                            spec_->days));

  util::Rng op_rng = rng.fork();
  op_context_ = std::make_unique<OpContextTimeline>(
      OpContextTimeline::generate(*spec_, op_rng));

  // Per-category alert generation; cascade sources first.
  auto plans = build_plans(system, opts_, namer_);
  IncidentContext ctx;
  ctx.spec = spec_;
  ctx.jobs = &jobs_;
  ctx.threshold_us = opts_.threshold_us;

  std::vector<std::vector<util::TimeUs>> starts(plans.size());
  std::vector<bool> done(plans.size(), false);
  std::vector<std::vector<SimEvent>> streams;

  const auto generate_one = [&](std::size_t i) {
    util::Rng cat_rng(opts_.seed ^ 0x5eed ^
                      (static_cast<std::uint64_t>(system) << 40) ^
                      (static_cast<std::uint64_t>(i) << 8));
    const std::vector<util::TimeUs>* anchors = nullptr;
    if (plans[i].cascade_from >= 0) {
      anchors = &starts[static_cast<std::size_t>(plans[i].cascade_from)];
    }
    streams.push_back(
        generate_category(plans[i], ctx, cat_rng, anchors, &starts[i]));
    done[i] = true;
  };

  // First pass: categories no one cascades from OR that others depend
  // on -- simply generate anything without an unmet dependency, twice
  // (the cascade graph is one level deep).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < plans.size(); ++i) {
      if (done[i]) continue;
      const int dep = plans[i].cascade_from;
      if (dep >= 0 && !done[static_cast<std::size_t>(dep)]) continue;
      generate_one(i);
    }
  }
  // Any remaining cycle (should not happen): generate without anchors.
  for (std::size_t i = 0; i < plans.size(); ++i) {
    if (!done[i]) {
      plans[i].cascade_from = -1;
      generate_one(i);
    }
  }
  total_failures_ = ctx.next_failure_id - 1;

  // Chatter.
  util::Rng chatter_rng(opts_.seed ^ 0xc4a77e12ull ^
                        (static_cast<std::uint64_t>(system) << 16));
  streams.push_back(generate_chatter(*spec_, opts_, namer_, chatter_rng));

  events_ = merge_streams(std::move(streams));

  renderer_ = std::make_unique<Renderer>(
      *spec_, namer_,
      opts_.inject_corruption ? CorruptionConfig{} : CorruptionConfig::none(),
      opts_.seed);
}

std::string Simulator::line(std::size_t i) const {
  std::string s;
  renderer_->render_into(events_.at(i), i, s);
  return s;
}

void Simulator::for_each_line(
    const std::function<void(std::string_view)>& fn) const {
  for_each_line_in(0, events_.size(), fn);
}

std::vector<Simulator::EventRange> Simulator::event_shards(
    std::size_t chunk_events) const {
  const std::size_t chunk = std::max<std::size_t>(chunk_events, 1);
  std::vector<EventRange> shards;
  shards.reserve(events_.size() / chunk + 1);
  for (std::size_t begin = 0; begin < events_.size(); begin += chunk) {
    shards.push_back({begin, std::min(begin + chunk, events_.size())});
  }
  return shards;
}

void Simulator::for_each_line_in(
    std::size_t begin, std::size_t end,
    const std::function<void(std::string_view)>& fn) const {
  end = std::min(end, events_.size());
  std::string line;
  for (std::size_t i = begin; i < end; ++i) {
    line.clear();
    renderer_->render_into(events_[i], i, line);
    fn(line);
  }
}

std::vector<filter::Alert> Simulator::ground_truth_alerts() const {
  const auto cats = tag::categories_of(spec_->id);
  std::vector<filter::Alert> out;
  out.reserve(static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(),
      [](const SimEvent& e) { return e.is_alert(); })));
  for (const SimEvent& e : events_) {
    if (!e.is_alert()) continue;
    filter::Alert a;
    a.time = e.time;
    a.source = e.source;
    a.category = static_cast<std::uint16_t>(e.category);
    a.type = cats.at(static_cast<std::size_t>(e.category))->type;
    a.failure_id = e.failure_id;
    a.weight = e.weight;
    out.push_back(a);
  }
  return out;  // events_ is sorted, so the alert stream is too
}

std::vector<double> Simulator::weighted_alert_counts() const {
  const auto cats = tag::categories_of(spec_->id);
  std::vector<double> out(cats.size(), 0.0);
  for (const SimEvent& e : events_) {
    if (e.is_alert()) out[static_cast<std::size_t>(e.category)] += e.weight;
  }
  return out;
}

double Simulator::weighted_message_total() const {
  double t = 0.0;
  for (const SimEvent& e : events_) t += e.weight;
  return t;
}

}  // namespace wss::sim
