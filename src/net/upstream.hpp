// Asynchronous multiplexed upstream connection: the router's data-plane
// link to one backend, registered on a net::Reactor (net/reactor.hpp).
//
// An UpstreamConn multiplexes every in-flight hop over one TCP stream,
// matched by the hop-level request id the router assigned.  It owns no
// thread.  Built on a shared reactor (a router passes its NetServer's), the
// reactor's loop dials the backend, reads RESPONSE frames and hands them
// to `on_response`, and writes queued REQUEST frames at the end of each
// loop pass.  Built standalone, it gets a reactor of its own: the same code
// on that reactor's loop thread.
//
// The loop also owns the connection lifecycle: it dials without blocking,
// backs off on failure on a reactor timer (bounded exponential, capped —
// never gives up while the conn is running; the membership layer decides
// when a backend is "down"), and re-dials after a drop.  State transitions
// are surfaced through `on_state` so the router can fail over in-flight
// hops the moment a backend dies (a SIGKILL'd peer shows up here as
// EOF/RST long before a heartbeat times out).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/wire.hpp"

namespace rlb::net {

class Reactor;

struct UpstreamConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Reconnect backoff: initial, doubling, capped.
  std::uint64_t backoff_initial_ms = 50;
  std::uint64_t backoff_max_ms = 2000;
};

/// Called on the reactor's loop thread for every RESPONSE frame.
using UpstreamResponseFn = std::function<void(const ResponseMsg&)>;
/// Called on the reactor's loop thread on every connect (true) / drop
/// (false).  A dial that fails is not a drop: only a connection that came
/// up and went away (or was stopped) reports false.
using UpstreamStateFn = std::function<void(bool connected)>;

class UpstreamConn {
 public:
  /// Standalone: the connection runs on a reactor of its own.
  UpstreamConn(UpstreamConfig config, UpstreamResponseFn on_response,
               UpstreamStateFn on_state);
  /// Shared: the connection runs on `reactor`, which must outlive it.
  UpstreamConn(Reactor& reactor, UpstreamConfig config,
               UpstreamResponseFn on_response, UpstreamStateFn on_state);
  ~UpstreamConn();

  UpstreamConn(const UpstreamConn&) = delete;
  UpstreamConn& operator=(const UpstreamConn&) = delete;

  /// Start dialing (now, not on a later timer tick).  Idempotent.
  void start();
  /// Tear the connection down (on_state(false) fires if it was up) and
  /// stop re-dialing; no callback runs after this returns.  Idempotent.
  void stop();

  /// Queue one REQUEST frame WITHOUT draining (thread-safe).  Returns
  /// false when the connection is currently down; the caller picks
  /// another backend or rejects.  A valid `trace` context rides the
  /// frame's trace extension (see net/wire.hpp); the default (invalid)
  /// context encodes the plain v1 frame.  On the reactor's loop thread
  /// the frame leaves with the loop pass's end-of-pass write; from other
  /// threads it waits for flush().  A queued frame whose write fails dies
  /// with the connection and is recovered by the drop signal.
  bool enqueue_request(std::uint64_t request_id, std::uint64_t key,
                       const obs::TraceContext& trace = {});

  /// Send what other threads queued (one write for the whole burst, on
  /// the loop thread).  A no-op on the loop thread, whose frames go out at
  /// the end of the pass.  Returns false when the connection is down.
  bool flush();

  bool connected() const;
  /// Successful dials after the first (i.e. recoveries).
  std::uint64_t reconnects() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace rlb::net
