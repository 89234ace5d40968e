#include "net/upstream.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <memory>
#include <utility>
#include <vector>

#include "net/reactor.hpp"

namespace rlb::net {

struct UpstreamConn::Impl final : ConnHandler {
  Impl(Reactor* shared, UpstreamConfig cfg, UpstreamResponseFn response_fn,
       UpstreamStateFn state_fn)
      // A standalone connection's reactor has no accepted slots and no
      // outbound cap: frames queued from another thread wait for flush(),
      // as they always have, however far the caller runs ahead.
      : own(shared ? nullptr : std::make_unique<Reactor>(0, 0)),
        reactor(shared ? shared : own.get()),
        config(std::move(cfg)),
        on_response(std::move(response_fn)),
        on_state(std::move(state_fn)),
        backoff_ms(config.backoff_initial_ms) {}

  std::unique_ptr<Reactor> own;
  Reactor* reactor;
  UpstreamConfig config;
  UpstreamResponseFn on_response;
  UpstreamStateFn on_state;

  // Loop-owned.
  bool running = false;
  std::uint64_t conn = 0;  ///< registered socket (connecting or up); 0 none
  std::uint64_t backoff_ms;
  Reactor::TimerId redial = 0;

  // Read from any thread: the token while connected, 0 while down.
  std::atomic<std::uint64_t> up_token{0};
  std::atomic<std::uint64_t> dials{0};

  void schedule_redial(std::uint64_t delay_ms) {
    redial = reactor->call_after(delay_ms, [this] { dial(); });
  }

  /// Failed dial: wait, doubling the wait up to the cap.
  void back_off() {
    schedule_redial(backoff_ms);
    backoff_ms = std::min(backoff_ms * 2, config.backoff_max_ms);
  }

  void dial() {
    redial = 0;
    if (!running) return;
    const int s = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (s < 0) {
      back_off();
      return;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    const int one = 1;
    ::setsockopt(s, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1 ||
        (::connect(s, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
         errno != EINPROGRESS)) {
      ::close(s);
      back_off();
      return;
    }
    conn = reactor->add(s, this, Reactor::Kind::kDialed);
    if (conn == 0) back_off();
  }

  void on_open(std::uint64_t token) override {
    backoff_ms = config.backoff_initial_ms;
    up_token.store(token, std::memory_order_release);
    dials.fetch_add(1, std::memory_order_relaxed);
    if (on_state) on_state(true);
  }

  bool on_frame(std::uint64_t, const FrameView& frame) override {
    RequestMsg request;
    ResponseMsg response;
    // Only RESPONSE frames belong on a data-plane stream; anything else is
    // a framing-level violation, so drop the connection.
    if (decode_payload(frame.data, frame.size, request, response) !=
        Decoded::kResponse) {
      return false;
    }
    if (on_response) on_response(response);
    return true;
  }

  void on_close(std::uint64_t, CloseCause) override {
    conn = 0;
    const bool was_up = up_token.exchange(0, std::memory_order_acq_rel) != 0;
    if (was_up && on_state) on_state(false);
    if (!running) return;
    // A drop re-dials at once (end of this pass); a failed dial backs off.
    if (was_up) {
      schedule_redial(0);
    } else {
      back_off();
    }
  }
};

UpstreamConn::UpstreamConn(UpstreamConfig config, UpstreamResponseFn on_response,
                           UpstreamStateFn on_state)
    : impl_(new Impl(nullptr, std::move(config), std::move(on_response),
                     std::move(on_state))) {}

UpstreamConn::UpstreamConn(Reactor& reactor, UpstreamConfig config,
                           UpstreamResponseFn on_response,
                           UpstreamStateFn on_state)
    : impl_(new Impl(&reactor, std::move(config), std::move(on_response),
                     std::move(on_state))) {}

UpstreamConn::~UpstreamConn() {
  stop();
  delete impl_;
}

void UpstreamConn::start() {
  if (impl_->own) impl_->own->start();
  impl_->reactor->run([this] {
    if (impl_->running) return;
    impl_->running = true;
    impl_->backoff_ms = impl_->config.backoff_initial_ms;
    impl_->dial();
  });
}

void UpstreamConn::stop() {
  impl_->reactor->run([this] {
    impl_->running = false;
    if (impl_->redial != 0) {
      impl_->reactor->cancel(impl_->redial);
      impl_->redial = 0;
    }
    if (impl_->conn != 0) impl_->reactor->close(impl_->conn);
  });
  if (impl_->own) impl_->own->stop(0);
}

bool UpstreamConn::enqueue_request(std::uint64_t request_id, std::uint64_t key,
                                   const obs::TraceContext& trace) {
  const std::uint64_t token = impl_->up_token.load(std::memory_order_acquire);
  if (token == 0) return false;
  return impl_->reactor->send_encoded(
      token,
      [&](std::vector<std::uint8_t>& out) {
        encode_request(RequestMsg{request_id, key, trace}, out);
        return true;
      },
      /*wake=*/false);
}

bool UpstreamConn::flush() {
  const std::uint64_t token = impl_->up_token.load(std::memory_order_acquire);
  if (token == 0) return false;
  if (impl_->reactor->in_loop()) return true;
  return impl_->reactor->flush(token);
}

bool UpstreamConn::connected() const {
  return impl_->up_token.load(std::memory_order_acquire) != 0;
}

std::uint64_t UpstreamConn::reconnects() const {
  const std::uint64_t d = impl_->dials.load(std::memory_order_relaxed);
  return d > 0 ? d - 1 : 0;
}

}  // namespace rlb::net
