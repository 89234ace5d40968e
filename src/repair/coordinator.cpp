#include "repair/coordinator.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>

#include "net/client.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "obs/thread_name.hpp"
#include "obs/trace.hpp"

namespace rlb::repair {

namespace {

/// Terminal outcome of one worker attempt.
enum class Attempt : std::uint8_t {
  kStaged,  ///< data moved and acked; remap awaits the next epoch commit
  kSkip,    ///< nothing to do (chunk already repaired / backend returned)
  kFailed,  ///< attempt failed; planner re-detects on its next scan
};

}  // namespace

RepairCoordinator::RepairCoordinator(RepairConfig config,
                                     std::vector<RepairEndpoint> backends,
                                     std::uint64_t chunks,
                                     core::EpochedPlacement& placement,
                                     Hooks hooks)
    : config_(config),
      backends_(std::move(backends)),
      chunks_(chunks),
      placement_(placement),
      hooks_(std::move(hooks)),
      throttle_(config.bytes_per_sec) {}

RepairCoordinator::~RepairCoordinator() { stop(); }

void RepairCoordinator::start() {
  if (!config_.enabled || started_) return;
  started_ = true;
  stopping_ = false;
  planner_ = std::thread([this] {
    obs::set_thread_name("rlb-repair-plan");
    planner_loop();
  });
  const unsigned n = std::max(1u, config_.max_concurrent);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      obs::set_thread_name("rlb-repair" + std::to_string(i));
      worker_loop();
    });
  }
}

void RepairCoordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  throttle_.stop();
  work_cv_.notify_all();
  plan_cv_.notify_all();
  if (planner_.joinable()) planner_.join();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  started_ = false;
}

void RepairCoordinator::on_backend_down(std::uint32_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_at_.emplace(id, std::chrono::steady_clock::now());
    planner_wake_ = true;
  }
  plan_cv_.notify_one();
}

void RepairCoordinator::on_backend_up(std::uint32_t id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    down_at_.erase(id);
    planner_wake_ = true;
  }
  plan_cv_.notify_one();
}

net::RepairStats RepairCoordinator::stats() const {
  net::RepairStats s;
  s.migrations_done = done_.load(std::memory_order_relaxed);
  s.migrations_failed = failed_.load(std::memory_order_relaxed);
  s.migrations_inflight = inflight_.load(std::memory_order_relaxed);
  s.chunks_pending = pending_chunks();
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.unplaceable = unplaceable_.load(std::memory_order_relaxed);
  return s;
}

std::size_t RepairCoordinator::pending_chunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_.size();
}

void RepairCoordinator::record_span(const char* name, std::uint64_t start_ns,
                                    std::uint64_t chunk,
                                    std::uint64_t cause) const {
  if (!obs::span_recording_enabled()) return;
  obs::Span span;
  // Repair is self-originated: each migration is its own (sampled) trace.
  span.trace_id = obs::next_span_id();
  span.span_id = obs::next_span_id();
  span.start_ns = start_ns;
  span.end_ns = obs::now_ns();
  span.name = name;
  span.shard = static_cast<std::uint32_t>(chunk);
  span.flags = obs::kSpanSampled;
  span.cause = static_cast<std::uint8_t>(cause);
  obs::SpanRecorder::instance().record(span);
}

void RepairCoordinator::planner_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    plan_cv_.wait_for(lock,
                      std::chrono::milliseconds(config_.scan_interval_ms),
                      [this] { return stopping_ || planner_wake_; });
    planner_wake_ = false;
    if (stopping_) break;

    // 1. Settle the down set: purge backends that came back (and their
    //    queued migrations), collect those past the grace window.
    const auto now = std::chrono::steady_clock::now();
    std::unordered_set<std::uint32_t> dead;
    for (auto it = down_at_.begin(); it != down_at_.end();) {
      const std::uint32_t id = it->first;
      if (hooks_.is_live && hooks_.is_live(id)) {
        for (auto p = pending_.begin(); p != pending_.end();) {
          if (p->from == id) {
            active_.erase(p->chunk);
            p = pending_.erase(p);
          } else {
            ++p;
          }
        }
        it = down_at_.erase(it);
        continue;
      }
      if (now - it->second >=
          std::chrono::milliseconds(config_.down_grace_ms)) {
        dead.insert(id);
      }
      ++it;
    }

    // 2. Commit staged remaps as one epoch transition, so the scan below
    //    sees post-commit choices and in-flight readers cut over with a
    //    single atomic publish.
    if (!staged_.empty()) {
      core::PlacementDelta delta;
      delta.epoch = placement_.epoch() + 1;
      delta.remaps = std::move(staged_);
      staged_.clear();
      const std::uint64_t t0 = obs::now_ns();
      const bool applied = placement_.apply(delta);
      for (const core::ChunkRemap& remap : delta.remaps) {
        active_.erase(remap.chunk);
      }
      if (applied) {
        done_.fetch_add(delta.remaps.size(), std::memory_order_relaxed);
        record_span("repair.commit", t0, delta.remaps.size(), 0);
        obs::Journal::instance().append(obs::JournalType::kEpochCommit,
                                        delta.epoch, delta.remaps.size());
      } else {
        // Validation rejected the batch (e.g. a racing delta from tests);
        // dropping active_ lets the scan re-detect what still matters.
        failed_.fetch_add(delta.remaps.size(), std::memory_order_relaxed);
      }
    }

    // 3. Scan placement for chunks that still reference a dead backend.
    if (!dead.empty()) {
      std::size_t queued = 0;
      for (std::uint64_t chunk = 0; chunk < chunks_; ++chunk) {
        if (active_.count(chunk) != 0) continue;
        const core::ChoiceList cl =
            placement_.choices(static_cast<core::ChunkId>(chunk));
        for (const core::ServerId s : cl) {
          if (dead.count(s) != 0) {
            pending_.push_back(Migration{chunk, s});
            active_.insert(chunk);
            ++queued;
            break;  // one replica repair per chunk per round
          }
        }
      }
      if (queued > 0) work_cv_.notify_all();
    }
  }
}

void RepairCoordinator::worker_loop() {
  for (;;) {
    Migration m;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !pending_.empty(); });
      if (stopping_) return;
      m = pending_.front();
      pending_.pop_front();
    }
    // The backend may have recovered while this sat in the queue.
    if (hooks_.is_live && hooks_.is_live(m.from)) {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(m.chunk);
      continue;
    }
    if (!throttle_.take(config_.bytes_per_chunk)) return;  // stopped

    inflight_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t t0 = obs::now_ns();
    obs::Journal::instance().append(obs::JournalType::kMigrateStart, m.chunk,
                                    m.from);
    Attempt outcome = Attempt::kFailed;
    core::ChunkRemap remap;
    try {
      outcome = execute(m, remap) ? Attempt::kStaged : Attempt::kSkip;
    } catch (const std::exception&) {
      outcome = Attempt::kFailed;
    }
    inflight_.fetch_sub(1, std::memory_order_relaxed);

    switch (outcome) {
      case Attempt::kStaged: {
        bytes_sent_.fetch_add(config_.bytes_per_chunk,
                              std::memory_order_relaxed);
        record_span("repair.migrate", t0, m.chunk, 0);
        obs::Journal::instance().append(obs::JournalType::kMigrateDone,
                                        m.chunk, remap.to);
        {
          std::lock_guard<std::mutex> lock(mu_);
          staged_.push_back(remap);
          planner_wake_ = true;
        }
        plan_cv_.notify_one();
        break;
      }
      case Attempt::kSkip: {
        unplaceable_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        active_.erase(m.chunk);
        break;
      }
      case Attempt::kFailed: {
        failed_.fetch_add(1, std::memory_order_relaxed);
        record_span("repair.migrate", t0, m.chunk, 1);
        obs::Journal::instance().append(obs::JournalType::kMigrateFail,
                                        m.chunk, m.from);
        std::lock_guard<std::mutex> lock(mu_);
        active_.erase(m.chunk);
        break;
      }
    }
  }
}

bool RepairCoordinator::execute(const Migration& m, core::ChunkRemap& out) {
  const core::ChoiceList cl =
      placement_.choices(static_cast<core::ChunkId>(m.chunk));
  if (!cl.contains(m.from)) return false;  // already repaired elsewhere

  // Source: least-loaded live surviving replica.
  int source = -1;
  std::uint64_t source_load = 0;
  for (const core::ServerId s : cl) {
    if (s == m.from) continue;
    if (s >= backends_.size()) continue;
    if (hooks_.is_live && !hooks_.is_live(s)) continue;
    const std::uint64_t load = hooks_.load ? hooks_.load(s) : 0;
    if (source < 0 || load < source_load) {
      source = static_cast<int>(s);
      source_load = load;
    }
  }
  // Target: least-loaded live backend outside the current choice set.
  int target = -1;
  std::uint64_t target_load = 0;
  for (std::uint32_t id = 0; id < backends_.size(); ++id) {
    if (cl.contains(id)) continue;
    if (hooks_.is_live && !hooks_.is_live(id)) continue;
    const std::uint64_t load = hooks_.load ? hooks_.load(id) : 0;
    if (target < 0 || load < target_load) {
      target = static_cast<int>(id);
      target_load = load;
    }
  }
  if (source < 0 || target < 0) return false;  // unplaceable right now

  net::MigrateMsg msg;
  msg.migration_id =
      next_migration_id_.fetch_add(1, std::memory_order_relaxed);
  msg.chunk = m.chunk;
  msg.epoch = placement_.epoch();
  msg.target_backend = static_cast<std::uint32_t>(target);
  msg.bytes = config_.bytes_per_chunk;
  msg.target_port = backends_[static_cast<std::size_t>(target)].port;
  msg.target_host = backends_[static_cast<std::size_t>(target)].host;

  net::Client source_conn;
  source_conn.connect(backends_[static_cast<std::size_t>(source)].host,
                      backends_[static_cast<std::size_t>(source)].port);
  source_conn.set_recv_timeout_ms(config_.migrate_timeout_ms);
  source_conn.send_migrate(msg);
  source_conn.flush();

  net::MigrateAckMsg ack;
  const net::ReadOutcome outcome = source_conn.try_read_migrate_ack(ack);
  if (outcome != net::ReadOutcome::kFrame ||
      ack.migration_id != msg.migration_id || ack.status != 0 ||
      ack.bytes != msg.bytes) {
    throw std::runtime_error("migration stream failed");
  }

  out.chunk = static_cast<core::ChunkId>(m.chunk);
  out.from = m.from;
  out.to = static_cast<core::ServerId>(target);
  return true;
}

}  // namespace rlb::repair
