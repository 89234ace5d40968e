#include "cluster/membership.hpp"

#include "obs/histogram.hpp"

namespace rlb::cluster {

const char* to_string(BackendHealth health) noexcept {
  switch (health) {
    case BackendHealth::kDown:
      return "down";
    case BackendHealth::kProbation:
      return "probation";
    case BackendHealth::kUp:
      return "up";
  }
  return "unknown";
}

Membership::Membership(std::size_t backends, MembershipConfig config)
    : config_(config), slots_(backends) {}

void Membership::subscribe(TransitionFn on_transition) {
  subscribers_.push_back(std::move(on_transition));
}

void Membership::notify(std::uint32_t id, BackendHealth from,
                        BackendHealth to) const {
  // Callers release mu_ first: view() and every accessor take it, and a
  // subscriber (e.g. the repair coordinator) is entitled to call back in.
  for (const TransitionFn& fn : subscribers_) fn(id, from, to);
}

void Membership::record_success(std::uint32_t id,
                                const HeartbeatSample& sample) {
  BackendHealth from = BackendHealth::kDown;
  BackendHealth to = BackendHealth::kDown;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= slots_.size()) return;
    Slot& slot = slots_[id];
    slot.misses = 0;
    ++slot.heartbeats_ok;
    slot.backlog_gauge.store(sample.backlog, std::memory_order_relaxed);
    slot.completed = sample.completed;
    slot.servers = sample.servers;
    slot.servers_down = sample.servers_down;
    if (sample.rtt_us > 0) {
      slot.rtt_ema_us = slot.rtt_ema_us == 0
                            ? sample.rtt_us
                            : (3 * slot.rtt_ema_us + sample.rtt_us) / 4;
    }
    from = slot.health.load(std::memory_order_relaxed);
    switch (from) {
      case BackendHealth::kDown:
        slot.health.store(BackendHealth::kProbation,
                          std::memory_order_relaxed);
        slot.successes = 1;
        break;
      case BackendHealth::kProbation:
        ++slot.successes;
        break;
      case BackendHealth::kUp:
        return;
    }
    if (slot.successes >= config_.probation_successes) {
      slot.health.store(BackendHealth::kUp, std::memory_order_relaxed);
    }
    to = slot.health.load(std::memory_order_relaxed);
  }
  if (from != to) notify(id, from, to);
}

void Membership::record_miss(std::uint32_t id) {
  BackendHealth from = BackendHealth::kDown;
  BackendHealth to = BackendHealth::kDown;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= slots_.size()) return;
    Slot& slot = slots_[id];
    slot.successes = 0;
    ++slot.heartbeats_missed;
    from = slot.health.load(std::memory_order_relaxed);
    if (from == BackendHealth::kDown) return;
    // Probation is unforgiving: one miss sends the backend straight back
    // down.  An established (kUp) backend gets miss_threshold strikes.
    ++slot.misses;
    if (from == BackendHealth::kProbation ||
        slot.misses >= config_.miss_threshold) {
      slot.health.store(BackendHealth::kDown, std::memory_order_relaxed);
      slot.misses = 0;
      ++slot.transitions_down;
    }
    to = slot.health.load(std::memory_order_relaxed);
  }
  if (from != to) notify(id, from, to);
}

void Membership::force_down(std::uint32_t id) {
  BackendHealth from = BackendHealth::kDown;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= slots_.size()) return;
    Slot& slot = slots_[id];
    slot.successes = 0;
    slot.misses = 0;
    from = slot.health.load(std::memory_order_relaxed);
    if (from != BackendHealth::kDown) {
      slot.health.store(BackendHealth::kDown, std::memory_order_relaxed);
      ++slot.transitions_down;
    }
  }
  if (from != BackendHealth::kDown) {
    notify(id, from, BackendHealth::kDown);
  }
}

void Membership::note_forwarded(std::uint32_t id) {
  if (id >= slots_.size()) return;
  obs::bump(slots_[id].inflight);
}

void Membership::note_answered(std::uint32_t id) {
  if (id >= slots_.size()) return;
  // Decrement with a floor at zero: a drop event can retire hops the
  // forward path already retired, and the gauge must never wrap.
  std::atomic<std::uint64_t>& inflight = slots_[id].inflight;
  const std::uint64_t current = inflight.load(std::memory_order_relaxed);
  if (current > 0) inflight.store(current - 1, std::memory_order_relaxed);
}

bool Membership::is_live(std::uint32_t id) const {
  return id < slots_.size() &&
         slots_[id].health.load(std::memory_order_relaxed) ==
             BackendHealth::kUp;
}

std::uint64_t Membership::load_estimate(std::uint32_t id) const {
  if (id >= slots_.size()) return 0;
  return slots_[id].backlog_gauge.load(std::memory_order_relaxed) +
         slots_[id].inflight.load(std::memory_order_relaxed);
}

int Membership::pick(const std::uint32_t* candidates, std::size_t count,
                     std::uint64_t exclude_mask) const {
  int best = -1;
  std::uint64_t best_load = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t id = candidates[i];
    if (id >= slots_.size()) continue;
    if (id < 64 && (exclude_mask & (1ULL << id)) != 0) continue;
    const Slot& slot = slots_[id];
    if (slot.health.load(std::memory_order_relaxed) != BackendHealth::kUp) {
      continue;
    }
    const std::uint64_t load =
        slot.backlog_gauge.load(std::memory_order_relaxed) +
        slot.inflight.load(std::memory_order_relaxed);
    if (best < 0 || load < best_load ||
        (load == best_load && id < static_cast<std::uint32_t>(best))) {
      best = static_cast<int>(id);
      best_load = load;
    }
  }
  return best;
}

BackendView Membership::view(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  BackendView v;
  v.id = id;
  if (id >= slots_.size()) return v;
  const Slot& slot = slots_[id];
  v.health = slot.health.load(std::memory_order_relaxed);
  v.backlog_gauge = slot.backlog_gauge.load(std::memory_order_relaxed);
  v.inflight = slot.inflight.load(std::memory_order_relaxed);
  v.load_estimate = v.backlog_gauge + v.inflight;
  v.heartbeats_ok = slot.heartbeats_ok;
  v.heartbeats_missed = slot.heartbeats_missed;
  v.transitions_down = slot.transitions_down;
  v.completed = slot.completed;
  v.servers = slot.servers;
  v.servers_down = slot.servers_down;
  v.rtt_ema_us = slot.rtt_ema_us;
  return v;
}

std::size_t Membership::live_count() const {
  std::size_t n = 0;
  for (const Slot& slot : slots_) {
    if (slot.health.load(std::memory_order_relaxed) == BackendHealth::kUp) {
      ++n;
    }
  }
  return n;
}

}  // namespace rlb::cluster
