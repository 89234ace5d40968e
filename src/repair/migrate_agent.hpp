// Backend-side half of the repair plane.
//
// The agent installs the MIGRATE / MIGRATE_DATA handlers on a backend's
// NetServer.  Two roles, both live on every backend:
//
//   * migration SOURCE: a MIGRATE order from the repair coordinator names
//     a chunk, a byte budget, and a target backend.  The reactor thread
//     only queues the order; the agent's worker thread materialises the
//     chunk's (deterministic, checksummed) state, dials the target with a
//     blocking net::Client, streams it as MIGRATE_DATA slices, waits for
//     the target's MIGRATE_ACK, and finally acks the coordinator on the
//     original connection via NetServer::send_migrate_ack().  Serving is
//     never paused: the stream runs entirely off the reactor thread.
//
//   * migration TARGET: MIGRATE_DATA slices are verified (FNV-1a
//     checksum, offset continuity) and accounted on the reactor thread —
//     the nominal chunk state is small by design — and the last slice is
//     acked back to the source.
//
// Chunk state in this codebase is nominal (the engine is a queueing
// simulator), so the payload is a deterministic pattern derived from the
// chunk id; the transfer, throttle interaction, checksums, and ack chain
// are real.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "net/server.hpp"
#include "net/wire.hpp"

namespace rlb::repair {

struct MigrationAgentConfig {
  /// Receive timeout while waiting for the target backend's MIGRATE_ACK.
  std::uint64_t ack_timeout_ms = 2000;
};

/// Deterministic payload byte for `offset` within `chunk`'s state.  Both
/// ends derive it independently; tests use it to verify end-to-end
/// transfer integrity.
[[nodiscard]] std::uint8_t chunk_payload_byte(std::uint64_t chunk,
                                              std::uint64_t offset) noexcept;

class MigrationAgent {
 public:
  /// Completed-migration callback, fired with the migration's byte total.
  using ByteFn = std::function<void(std::uint64_t bytes)>;

  MigrationAgent(net::NetServer& server, MigrationAgentConfig config = {});
  ~MigrationAgent();

  MigrationAgent(const MigrationAgent&) = delete;
  MigrationAgent& operator=(const MigrationAgent&) = delete;

  /// Install the MIGRATE / MIGRATE_DATA handlers on the server.  Call
  /// before server.start() (handler installation is not thread-safe
  /// against a running reactor).
  void install();

  /// Start the outbound-stream worker thread.
  void start();

  /// Stop the worker; pending outbound orders are dropped (the
  /// coordinator times out and retries).
  void stop();

  /// Fired once per completed INBOUND migration (this backend was the
  /// target) with its byte total.  Install before start().
  void set_on_migration_in(ByteFn fn) { on_in_ = std::move(fn); }
  /// Fired once per completed OUTBOUND migration (this backend was the
  /// source).  Install before start().
  void set_on_migration_out(ByteFn fn) { on_out_ = std::move(fn); }
  /// Fired once per inbound slice that fails its checksum or byte
  /// pattern.  Install before install().
  void set_on_corrupt_slice(std::function<void()> fn) {
    on_corrupt_ = std::move(fn);
  }

  std::uint64_t migrations_out() const {
    return migrations_out_.load(std::memory_order_relaxed);
  }
  std::uint64_t migrations_in() const {
    return migrations_in_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_out() const {
    return bytes_out_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_in() const {
    return bytes_in_.load(std::memory_order_relaxed);
  }

 private:
  struct Order {
    std::uint64_t conn_token = 0;  ///< coordinator connection to ack
    net::MigrateMsg msg;
  };

  /// Partially received inbound migration (target role).
  struct Inbound {
    std::uint64_t received = 0;
    std::uint64_t total = 0;
    bool corrupt = false;
  };

  void handle_migrate(std::uint64_t token, const net::MigrateMsg& msg);
  void handle_migrate_data(std::uint64_t token, const net::MigrateDataMsg& msg);
  void worker_loop();
  /// Stream one order to its target; returns true when the target acked
  /// every byte.
  bool stream(const Order& order);

  net::NetServer& server_;
  MigrationAgentConfig config_;
  ByteFn on_in_;
  ByteFn on_out_;
  std::function<void()> on_corrupt_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Order> orders_;
  bool stopping_ = false;
  std::thread worker_;
  bool started_ = false;

  std::mutex inbound_mu_;
  std::unordered_map<std::uint64_t, Inbound> inbound_;

  std::atomic<std::uint64_t> migrations_out_{0};
  std::atomic<std::uint64_t> migrations_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
};

}  // namespace rlb::repair
