#include "net/fault_model.hpp"

#include <cassert>

namespace lockss::net {

namespace {

// Domain-separated lane seed: splitmix64 seeding decorrelates sequential
// seeds, so salt + id is already ideal; the extra mix guards against
// structured high ids (minion bases, spoofed ranges).
uint64_t lane_seed(uint64_t salt, uint64_t id) {
  return sim::splitmix64_mix(salt ^ (id + 1));
}

}  // namespace

FaultModel::FaultModel(const FaultConfig& config, sim::Rng rng)
    : config_(config), lane_salt_(rng.next_u64()), burst_salt_(rng.next_u64()) {
  assert(config_.loss_rate >= 0.0 && config_.loss_rate <= 1.0);
  assert(config_.dup_rate >= 0.0 && config_.dup_rate <= 1.0);
  assert(config_.burst_outage_rate >= 0.0 && config_.burst_outage_rate <= 1.0);
  assert(!config_.jitter.is_negative());
  assert(config_.burst_outage_rate == 0.0 || config_.burst_cycle > sim::SimTime::zero());
}

sim::Rng& FaultModel::lane(NodeId sender) {
  auto it = lanes_.find(sender.value);
  if (it == lanes_.end()) {
    it = lanes_.emplace(sender.value, sim::Rng(lane_seed(lane_salt_, sender.value))).first;
  }
  return it->second;
}

bool FaultModel::in_burst(NodeId from, NodeId to, sim::SimTime at) const {
  if (config_.burst_outage_rate <= 0.0) {
    return false;
  }
  if (config_.burst_outage_rate >= 1.0) {
    return true;
  }
  const int64_t cycle = config_.burst_cycle.ns();
  assert(cycle > 0);
  const int64_t t = at.ns() < 0 ? 0 : at.ns();
  const uint64_t k = static_cast<uint64_t>(t) / static_cast<uint64_t>(cycle);
  const int64_t phase = t - static_cast<int64_t>(k * static_cast<uint64_t>(cycle));
  const int64_t outage =
      static_cast<int64_t>(config_.burst_outage_rate * static_cast<double>(cycle));
  if (outage <= 0) {
    return false;
  }
  // Directed pair: (a, b) and (b, a) burst independently, like real access
  // links. The episode's placement within cycle k is a pure hash, so no
  // per-pair state exists.
  const uint64_t pair = sim::splitmix64_mix(from.value * 0x9E3779B97F4A7C15ull ^ to.value);
  const uint64_t h = sim::splitmix64_mix(burst_salt_ ^ pair ^ (k * 0xBF58476D1CE4E5B9ull));
  const int64_t offset = static_cast<int64_t>(h % static_cast<uint64_t>(cycle - outage + 1));
  return phase >= offset && phase < offset + outage;
}

FaultDecision FaultModel::decide(NodeId from, NodeId to, sim::SimTime now) {
  FaultDecision verdict;
  if (in_burst(from, to, now)) {
    verdict.drop = true;
    verdict.burst = true;
    return verdict;
  }
  sim::Rng& r = lane(from);
  const bool lost = r.bernoulli(config_.loss_rate);
  const bool dup = r.bernoulli(config_.dup_rate);
  const double jitter_u = r.uniform();
  if (lost) {
    verdict.drop = true;
    return verdict;
  }
  verdict.extra_delay = config_.jitter * jitter_u;
  if (dup) {
    verdict.duplicate = true;
    verdict.dup_extra_delay = config_.jitter * r.uniform();
  }
  return verdict;
}

}  // namespace lockss::net
