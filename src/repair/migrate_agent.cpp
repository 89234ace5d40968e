#include "repair/migrate_agent.hpp"

#include <algorithm>
#include <exception>

#include "net/client.hpp"
#include "obs/thread_name.hpp"

namespace rlb::repair {

std::uint8_t chunk_payload_byte(std::uint64_t chunk,
                                std::uint64_t offset) noexcept {
  // Cheap mix of chunk id and offset; both ends must agree, nothing more.
  const std::uint64_t x = (chunk * 0x9E3779B97F4A7C15ull) ^ (offset * 0xFF51AFD7ED558CCDull);
  return static_cast<std::uint8_t>(x >> 56);
}

MigrationAgent::MigrationAgent(net::NetServer& server,
                               MigrationAgentConfig config)
    : server_(server), config_(config) {}

MigrationAgent::~MigrationAgent() { stop(); }

void MigrationAgent::install() {
  server_.set_migrate_handler(
      [this](std::uint64_t token, const net::MigrateMsg& msg) {
        handle_migrate(token, msg);
      });
  server_.set_migrate_data_handler(
      [this](std::uint64_t token, const net::MigrateDataMsg& msg) {
        handle_migrate_data(token, msg);
      });
}

void MigrationAgent::start() {
  if (started_) return;
  started_ = true;
  stopping_ = false;
  worker_ = std::thread([this] {
    obs::set_thread_name("rlb-migrate");
    worker_loop();
  });
}

void MigrationAgent::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  started_ = false;
}

void MigrationAgent::handle_migrate(std::uint64_t token,
                                    const net::MigrateMsg& msg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    orders_.push_back(Order{token, msg});
  }
  cv_.notify_one();
}

void MigrationAgent::handle_migrate_data(std::uint64_t token,
                                         const net::MigrateDataMsg& msg) {
  const std::uint64_t computed =
      net::migrate_checksum(msg.payload.data(), msg.payload.size());
  bool payload_ok = computed == msg.checksum;
  if (payload_ok) {
    for (std::size_t i = 0; i < msg.payload.size(); ++i) {
      if (msg.payload[i] !=
          chunk_payload_byte(msg.chunk, msg.offset + i)) {
        payload_ok = false;
        break;
      }
    }
  }
  if (!payload_ok && on_corrupt_) on_corrupt_();

  bool last = msg.last;
  bool ok = false;
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(inbound_mu_);
    Inbound& in = inbound_[msg.migration_id];
    in.total = msg.total_bytes;
    if (!payload_ok || msg.offset != in.received) in.corrupt = true;
    in.received += msg.payload.size();
    if (last) {
      ok = !in.corrupt && in.received == in.total;
      total = in.received;
      inbound_.erase(msg.migration_id);
    }
  }
  if (!last) return;

  if (ok) {
    migrations_in_.fetch_add(1, std::memory_order_relaxed);
    bytes_in_.fetch_add(total, std::memory_order_relaxed);
    if (on_in_) on_in_(total);
  }
  net::MigrateAckMsg ack;
  ack.migration_id = msg.migration_id;
  ack.status = ok ? 0 : 1;
  ack.bytes = total;
  server_.send_migrate_ack(token, ack);
}

void MigrationAgent::worker_loop() {
  for (;;) {
    Order order;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !orders_.empty(); });
      if (stopping_) return;
      order = std::move(orders_.front());
      orders_.pop_front();
    }
    bool ok = false;
    try {
      ok = stream(order);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      migrations_out_.fetch_add(1, std::memory_order_relaxed);
      bytes_out_.fetch_add(order.msg.bytes, std::memory_order_relaxed);
      if (on_out_) on_out_(order.msg.bytes);
    }
    net::MigrateAckMsg ack;
    ack.migration_id = order.msg.migration_id;
    ack.status = ok ? 0 : 1;
    ack.bytes = ok ? order.msg.bytes : 0;
    server_.send_migrate_ack(order.conn_token, ack);
  }
}

bool MigrationAgent::stream(const Order& order) {
  const net::MigrateMsg& msg = order.msg;
  net::Client target;
  target.connect(msg.target_host, msg.target_port);
  target.set_recv_timeout_ms(config_.ack_timeout_ms);

  std::vector<std::uint8_t> slice;
  std::uint64_t offset = 0;
  do {  // a zero-byte migration still sends one (empty, last) slice
    const std::uint64_t len =
        std::min<std::uint64_t>(net::kMaxMigrateSlice, msg.bytes - offset);
    slice.resize(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i) {
      slice[static_cast<std::size_t>(i)] =
          chunk_payload_byte(msg.chunk, offset + i);
    }
    net::MigrateDataMsg data;
    data.migration_id = msg.migration_id;
    data.chunk = msg.chunk;
    data.offset = offset;
    data.total_bytes = msg.bytes;
    data.checksum = net::migrate_checksum(slice.data(), slice.size());
    data.last = offset + len >= msg.bytes;
    data.payload = slice;
    target.send_migrate_data(data);
    target.flush();
    offset += len;
  } while (offset < msg.bytes);

  net::MigrateAckMsg ack;
  const net::ReadOutcome outcome = target.try_read_migrate_ack(ack);
  return outcome == net::ReadOutcome::kFrame &&
         ack.migration_id == msg.migration_id && ack.status == 0 &&
         ack.bytes == msg.bytes;
}

}  // namespace rlb::repair
