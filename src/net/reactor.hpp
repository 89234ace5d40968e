// One epoll event loop that owns every socket registered on it.
//
// A Reactor is one loop thread (named "rlb-net") with an epoll fd, a wake
// pipe, a fixed table of connection slots, one-shot timers and a posted-task
// queue.  Connections come in two kinds that share every code path: accepted
// ones (a NetServer's clients, capped at `accepted_slots`) and dialed ones (a
// router's UpstreamConns, up to kDialSlots more).  For each registered
// connection the loop reads until the socket is empty, reassembles frames
// (net/wire.hpp) and hands each one to the connection's ConnHandler; it also
// writes what was queued for the connection.
//
// Writes are batched per loop pass.  send() called ON the loop thread
// appends the bytes to the connection's loop-owned drain buffer and lists
// the connection dirty — no lock, no atomic; send_encoded() on the loop
// encodes the frame straight into that buffer, with no copy.  send() from
// ANY OTHER thread (the engine's own thread answering a paced or
// frozen-clock tick, or the repair plane) appends to a small
// per-connection staging buffer under that connection's own mutex, flags
// the connection dirty and wakes the loop through the pipe on the
// clean->dirty edge, and only when the loop is asleep.  At the end of
// every pass the loop splices staged bytes into the drain buffers (a
// vector swap — no copy) and writes every dirty connection with one
// sendmsg() iovec chain, never holding a lock across a syscall.
//
// Connections are addressed by opaque 64-bit tokens (slot index + a
// generation counter), so a late send to a connection that already closed
// is dropped instead of reaching a recycled socket.  A connection whose
// queued outbound bytes exceed `max_outbound_bytes` (a stalled or slow
// reader) is closed as a slow consumer instead of growing without bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/wire.hpp"

namespace rlb::net {

/// Why a connection closed (passed to ConnHandler::on_close).
enum class CloseCause : std::uint8_t {
  kClosed,        ///< EOF, a socket error, a failed dial, on_frame()
                  ///< returning false, Reactor::close() or stop()
  kProtocol,      ///< the byte stream is not valid framing
  kSlowConsumer,  ///< queued outbound bytes exceeded the cap
};

/// The owner of a registered connection.  Every call runs on the loop
/// thread.
class ConnHandler {
 public:
  virtual ~ConnHandler() = default;
  /// A dialed connection finished connecting (accepted connections are
  /// connected when they are registered and never see this).  A dial that
  /// fails sees on_close() instead.
  virtual void on_open(std::uint64_t token) { (void)token; }
  /// One reassembled frame; the view dies when this returns.  Return false
  /// to close the connection.
  virtual bool on_frame(std::uint64_t token, const FrameView& frame) = 0;
  /// The connection's readable burst is drained: every frame read from it
  /// in this pass has been delivered.  Called before a close it caused.
  virtual void on_read_end() {}
  /// The connection closed; `token` is dead from here on.
  virtual void on_close(std::uint64_t token, CloseCause cause) = 0;

  /// Bytes read from / written to this handler's connections.  Only the
  /// loop writes them (readers may be on any thread).
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
};

class Reactor {
 public:
  /// Dialed connection slots, beyond the accepted ones.  A router dials at
  /// most 64 backends.
  static constexpr std::size_t kDialSlots = 64;

  /// Throws std::runtime_error when the epoll fd or the wake pipe cannot be
  /// created.  `max_outbound_bytes` = 0 disables the slow-consumer cap.
  Reactor(std::size_t accepted_slots, std::size_t max_outbound_bytes);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop thread.  Idempotent.
  void start();
  /// Close the watched fds, keep serving until every queued byte is written or
  /// `flush_timeout_ms` passes, then close every connection (each handler
  /// sees on_close()), run the tasks still posted, and join the loop
  /// thread.  Idempotent.
  void stop(std::uint64_t flush_timeout_ms);

  /// True on this reactor's loop thread.
  [[nodiscard]] bool in_loop() const noexcept;

  // ---- loop thread only (or while the loop is not running) -------------

  enum class Kind : std::uint8_t {
    kAccepted,  ///< an accepted, connected socket
    kDialed,    ///< a socket after a non-blocking connect(): on_open() or
                ///< on_close() reports how the dial ended
  };
  /// Register a non-blocking socket.  Returns its token, or 0 when its
  /// slot class is full (the fd is then closed).
  std::uint64_t add(int fd, ConnHandler* handler, Kind kind);
  /// Close a connection now; its handler sees on_close().  A dead token is
  /// a no-op.
  void close(std::uint64_t token);
  /// Call `on_ready` whenever `fd` turns readable (a listening socket).
  /// The reactor owns `fd` from here on and closes it as soon as stop()
  /// begins.  Callable before start().
  void watch(int fd, std::function<void()> on_ready);

  using TimerId = std::uint64_t;
  /// Run `fn` on the loop after `delay_ms` (0 = at the end of this pass).
  TimerId call_after(std::uint64_t delay_ms, std::function<void()> fn);
  /// Forget a pending timer; an unknown or already-fired id is a no-op.
  void cancel(TimerId id);

  // ---- any thread -------------------------------------------------------

  /// Run `task` on the loop thread and wait for it.  Runs inline when
  /// called on the loop thread or while no loop thread is running.
  void run(const std::function<void()>& task);

  /// Queue `size` bytes for the connection.  On the loop thread the bytes
  /// go out at the end of the pass.  From another thread they are staged;
  /// with `wake` the connection is flagged dirty (waking a sleeping loop),
  /// without it the bytes wait for flush().  Returns false when the
  /// connection is gone (the bytes are dropped).
  bool send(std::uint64_t token, const std::uint8_t* data, std::size_t size,
            bool wake = true);
  /// send() the bytes `encode(out)` appends to `out`.  On the loop thread
  /// `out` is the connection's drain buffer itself, so nothing is copied;
  /// elsewhere it is a per-thread scratch buffer that send() copies.
  /// `encode` returns false, having appended nothing, to send nothing.
  template <typename Encode>
  bool send_encoded(std::uint64_t token, Encode&& encode, bool wake = true) {
    if (in_loop()) {
      std::vector<std::uint8_t>* out = drain_buffer(token);
      return out != nullptr && encode(*out);
    }
    std::vector<std::uint8_t>& frame = scratch();
    frame.clear();
    return encode(frame) && send(token, frame.data(), frame.size(), wake);
  }
  /// Flag the connection dirty so its staged bytes go out (waking a
  /// sleeping loop).  Returns false when the connection is gone.
  bool flush(std::uint64_t token);

 private:
  /// Loop thread only: the connection's drain buffer, listed for the
  /// end-of-pass write, or nullptr when the connection is gone.
  std::vector<std::uint8_t>* drain_buffer(std::uint64_t token);
  /// The calling thread's staging scratch for send_encoded().
  static std::vector<std::uint8_t>& scratch();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rlb::net
