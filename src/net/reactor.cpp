#include "net/reactor.hpp"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "net/buffer_pool.hpp"
#include "obs/histogram.hpp"
#include "obs/journal.hpp"
#include "obs/thread_name.hpp"

namespace rlb::net {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kWakeTag = UINT64_MAX;
/// Watched fd i is tagged kWatchTag - i; connection slots are tagged by
/// index, far below.
constexpr std::uint64_t kWatchTag = UINT64_MAX - 1;

/// The reactor whose loop runs on this thread, if any.
thread_local const void* tls_loop = nullptr;

std::uint64_t make_token(std::size_t slot, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint64_t>(slot);
}

std::size_t slot_of(std::uint64_t token) {
  return static_cast<std::size_t>(token & 0xffffffffu);
}

std::uint32_t gen_of(std::uint64_t token) {
  return static_cast<std::uint32_t>(token >> 32);
}

/// Per-connection drain buffers larger than this are returned to the
/// global pool (which frees oversized ones) when the connection closes,
/// so one slow consumer doesn't pin megabytes on an idle slot forever.
constexpr std::size_t kRetainCapacity = 64 * 1024;

void trim_buffer(std::vector<std::uint8_t>& buf) {
  buf.clear();
  if (buf.capacity() > kRetainCapacity) {
    global_buffer_pool().release(std::move(buf));
    buf = std::vector<std::uint8_t>();
  }
}

}  // namespace

struct Reactor::Impl {
  struct Conn {
    // ---- Loop-owned state: only the loop thread touches these.
    int fd = -1;
    ConnHandler* handler = nullptr;
    bool connecting = false;
    bool listed = false;  ///< in `dirty`
    FrameDecoder decoder;
    /// Drain pair: `front` is being written (from front_off), `back`
    /// collects behind it.  sendmsg() chains both in one syscall.
    std::vector<std::uint8_t> front;
    std::size_t front_off = 0;
    std::vector<std::uint8_t> back;

    // ---- Cross-thread surface.  stage_mu guards `staged` plus the
    // open/gen identity transitions, so a sender that observes open under
    // the lock cannot leak bytes into a recycled slot: close_conn flips
    // open/gen under the same lock before clearing staged.  The loop
    // writes open/gen only under the lock, so it may read them without.
    std::mutex stage_mu;
    std::vector<std::uint8_t> staged;
    bool open = false;
    /// Starts at 1 so no live token is 0 (add()'s "no slot").
    std::uint32_t gen = 1;
    /// Clean->dirty edge raises `any_staged` and maybe wakes the loop; the
    /// loop exchanges it back to false before splicing so no staging is
    /// ever missed.
    std::atomic<bool> stage_dirty{false};
  };

  struct Timer {
    TimerId id = 0;
    Clock::time_point due;
    std::function<void()> fn;
  };

  Impl(std::size_t accepted, std::size_t max_out)
      : accepted_slots(accepted), max_outbound_bytes(max_out) {
    // Fixed slot table: tokens index it lock-free, so it never grows.
    conns.reserve(accepted + kDialSlots);
    for (std::size_t i = 0; i < accepted + kDialSlots; ++i) {
      conns.push_back(std::make_unique<Conn>());
    }
    for (std::size_t i = accepted; i > 0; --i) free_accepted.push_back(i - 1);
    for (std::size_t i = accepted + kDialSlots; i > accepted; --i) {
      free_dialed.push_back(i - 1);
    }
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    int pipe_fds[2];
    if (epoll_fd < 0 || ::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      if (epoll_fd >= 0) ::close(epoll_fd);
      throw std::runtime_error("Reactor: epoll/pipe creation failed");
    }
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, wake_read, &ev);
  }

  ~Impl() {
    for (const auto& conn : conns) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    close_watches();
    ::close(epoll_fd);
    ::close(wake_read);
    ::close(wake_write);
  }

  bool in_loop() const noexcept { return tls_loop == this; }

  void wake() {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  bool alive(std::size_t slot, std::uint64_t token) const {
    const Conn& conn = *conns[slot];
    return conn.fd >= 0 && conn.gen == gen_of(token);
  }

  /// Raise the connection's dirty flag; only the clean->dirty edge needs a
  /// wake, and only when the loop is blocked.  Dekker pairing (seq_cst):
  /// the sender stores stage_dirty and any_staged, then loads loop_asleep;
  /// the loop stores loop_asleep, then loads any_staged before sleeping —
  /// so staged bytes are either seen by the loop or their sender wakes it.
  void mark_dirty(Conn& conn) {
    if (!conn.stage_dirty.exchange(true, std::memory_order_seq_cst)) {
      any_staged.store(true, std::memory_order_seq_cst);
      if (loop_asleep.load(std::memory_order_seq_cst)) wake();
    }
  }

  // ---- connections --------------------------------------------------

  std::uint64_t add(int fd, ConnHandler* handler, Kind kind) {
    std::vector<std::size_t>& pool =
        kind == Kind::kAccepted ? free_accepted : free_dialed;
    if (pool.empty()) {
      ::close(fd);
      return 0;
    }
    const std::size_t slot = pool.back();
    pool.pop_back();
    Conn& conn = *conns[slot];
    conn.fd = fd;
    conn.handler = handler;
    conn.connecting = kind == Kind::kDialed;
    conn.listed = false;
    conn.front_off = 0;
    {
      std::lock_guard lock(conn.stage_mu);
      conn.staged.clear();
      conn.open = true;
    }
    conn.stage_dirty.store(false, std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = static_cast<std::uint64_t>(slot);
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      {
        std::lock_guard lock(conn.stage_mu);
        conn.open = false;
        if (++conn.gen == 0) conn.gen = 1;
      }
      ::close(fd);
      conn.fd = -1;
      conn.handler = nullptr;
      pool.push_back(slot);
      return 0;
    }
    return make_token(slot, conn.gen);
  }

  void close_conn(std::size_t slot, CloseCause cause) {
    Conn& conn = *conns[slot];
    if (conn.fd < 0) return;
    const std::uint64_t token = make_token(slot, conn.gen);
    {
      std::lock_guard lock(conn.stage_mu);
      conn.open = false;
      if (++conn.gen == 0) conn.gen = 1;
      trim_buffer(conn.staged);
    }
    conn.stage_dirty.store(false, std::memory_order_relaxed);
    ::close(conn.fd);  // also deregisters from epoll
    conn.fd = -1;
    conn.connecting = false;
    trim_buffer(conn.front);
    conn.front_off = 0;
    trim_buffer(conn.back);
    conn.decoder.reset();
    ConnHandler* handler = conn.handler;
    conn.handler = nullptr;
    (slot < accepted_slots ? free_accepted : free_dialed).push_back(slot);
    handler->on_close(token, cause);
  }

  /// Close every watched fd (a listener stops accepting at once: a peer
  /// that redials the moment its connection drops is refused, not parked
  /// in the backlog of a reactor that is going away).
  void close_watches() {
    for (Watch& watch : watches) {
      if (watch.fd >= 0) ::close(watch.fd);
      watch.fd = -1;
    }
  }

  void close_all() {
    for (std::size_t slot = 0; slot < conns.size(); ++slot) {
      close_conn(slot, CloseCause::kClosed);
    }
  }

  /// Drain readable bytes and hand every complete frame to the handler.
  /// A short read ends the burst (the socket is empty; new bytes raise a
  /// new edge) unless the peer already hung up, in which case reading on
  /// to EOF is what notices it.  Closes the connection on EOF, error or a
  /// framing violation.
  void read_ready(std::size_t slot, bool peer_closed) {
    Conn& conn = *conns[slot];
    ConnHandler* handler = conn.handler;
    const std::uint64_t token = make_token(slot, conn.gen);
    std::optional<CloseCause> cause;
    std::uint8_t buffer[16384];
    for (;;) {
      const ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
      if (n == 0) {
        cause = CloseCause::kClosed;
        break;
      }
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        cause = CloseCause::kClosed;
        break;
      }
      obs::bump(handler->bytes_in, static_cast<std::uint64_t>(n));
      if (!conn.decoder.feed(buffer, static_cast<std::size_t>(n))) {
        cause = CloseCause::kProtocol;
        break;
      }
      FrameView frame;
      while (conn.decoder.next_view(frame)) {
        if (!handler->on_frame(token, frame)) {
          cause = CloseCause::kClosed;
          break;
        }
        if (!alive(slot, token)) {  // the handler closed it
          handler->on_read_end();
          return;
        }
      }
      if (cause) break;
      if (conn.decoder.error()) {
        cause = CloseCause::kProtocol;
        break;
      }
      if (static_cast<std::size_t>(n) < sizeof(buffer) && !peer_closed) break;
    }
    handler->on_read_end();
    if (cause && alive(slot, token)) close_conn(slot, *cause);
  }

  /// sendmsg() the drain pair until empty or EAGAIN.  Never holds a lock.
  /// Returns false on a fatal write error.
  bool flush_writes(Conn& conn) {
    while (conn.front_off < conn.front.size() || !conn.back.empty()) {
      if (conn.front_off == conn.front.size()) {
        conn.front.clear();
        conn.front_off = 0;
        conn.front.swap(conn.back);
      }
      iovec iov[2];
      int iov_count = 1;
      iov[0].iov_base = conn.front.data() + conn.front_off;
      iov[0].iov_len = conn.front.size() - conn.front_off;
      if (!conn.back.empty()) {
        iov[1].iov_base = conn.back.data();
        iov[1].iov_len = conn.back.size();
        iov_count = 2;
      }
      // sendmsg instead of writev purely for MSG_NOSIGNAL: a mid-write
      // disconnect must surface as EPIPE, not SIGPIPE.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iov_count);
      const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      obs::bump(conn.handler->bytes_out, static_cast<std::uint64_t>(n));
      std::size_t advance = static_cast<std::size_t>(n);
      const std::size_t front_remaining = conn.front.size() - conn.front_off;
      if (advance >= front_remaining) {
        advance -= front_remaining;
        conn.front.clear();
        conn.front.swap(conn.back);
        conn.front_off = advance;
      } else {
        conn.front_off += advance;
      }
    }
    return true;
  }

  /// Splice staged bytes into the drain pair (a vector swap when possible),
  /// enforce the slow-consumer cap, then write.  Closes the connection and
  /// returns false when it must go.
  bool service_outbound(std::size_t slot) {
    Conn& conn = *conns[slot];
    if (conn.stage_dirty.exchange(false, std::memory_order_acq_rel)) {
      std::lock_guard lock(conn.stage_mu);
      if (!conn.staged.empty()) {
        if (conn.front.empty()) {
          conn.front_off = 0;
          conn.front.swap(conn.staged);
        } else if (conn.back.empty()) {
          conn.back.swap(conn.staged);
        } else {
          conn.back.insert(conn.back.end(), conn.staged.begin(),
                           conn.staged.end());
          conn.staged.clear();
        }
      }
    }
    const std::size_t queued =
        (conn.front.size() - conn.front_off) + conn.back.size();
    if (max_outbound_bytes > 0 && queued > max_outbound_bytes) {
      obs::Journal::instance().append(obs::JournalType::kSlowConsumer,
                                      static_cast<std::uint64_t>(slot),
                                      static_cast<std::uint64_t>(queued));
      close_conn(slot, CloseCause::kSlowConsumer);
      return false;
    }
    if (!flush_writes(conn)) {
      close_conn(slot, CloseCause::kClosed);
      return false;
    }
    return true;
  }

  /// The end-of-pass write: every connection written on the loop this
  /// pass, then every connection other threads staged bytes for.  A close
  /// here can queue more writes (a router failing hops over), so repeat
  /// until nothing is listed.
  void write_dirty() {
    for (;;) {
      while (!dirty.empty()) {
        dirty_scratch.swap(dirty);
        for (const std::size_t slot : dirty_scratch) {
          Conn& conn = *conns[slot];
          conn.listed = false;
          if (conn.fd >= 0 && !conn.connecting) service_outbound(slot);
        }
        dirty_scratch.clear();
      }
      if (any_staged.exchange(false, std::memory_order_acq_rel)) {
        for (std::size_t slot = 0; slot < conns.size(); ++slot) {
          Conn& conn = *conns[slot];
          if (conn.fd < 0 || conn.connecting) continue;
          if (!conn.stage_dirty.load(std::memory_order_relaxed)) continue;
          service_outbound(slot);
        }
      }
      if (dirty.empty()) return;
    }
  }

  void finish_connect(std::size_t slot) {
    Conn& conn = *conns[slot];
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      close_conn(slot, CloseCause::kClosed);
      return;
    }
    conn.connecting = false;
    conn.handler->on_open(make_token(slot, conn.gen));
  }

  void handle_conn_event(std::size_t slot, std::uint32_t events) {
    Conn& conn = *conns[slot];
    if (conn.fd < 0) return;
    const std::uint64_t token = make_token(slot, conn.gen);
    if (conn.connecting) {
      if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
      finish_connect(slot);
      if (!alive(slot, token)) return;
    }
    if ((events & EPOLLERR) != 0) {
      close_conn(slot, CloseCause::kClosed);
      return;
    }
    if ((events & EPOLLOUT) != 0 && !service_outbound(slot)) return;
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLRDHUP)) != 0) {
      read_ready(slot, (events & (EPOLLHUP | EPOLLRDHUP)) != 0);
    }
  }

  // ---- timers and posted tasks --------------------------------------

  void run_timers() {
    if (timers.empty()) return;
    const Clock::time_point now = Clock::now();
    due_scratch.clear();
    for (const Timer& timer : timers) {
      if (timer.due <= now) due_scratch.emplace_back(timer.due, timer.id);
    }
    std::sort(due_scratch.begin(), due_scratch.end());
    // One at a time by id: a timer may cancel or add others.
    for (const auto& [due, id] : due_scratch) {
      const auto it = std::find_if(timers.begin(), timers.end(),
                                   [id = id](const Timer& t) { return t.id == id; });
      if (it == timers.end()) continue;
      std::function<void()> fn = std::move(it->fn);
      timers.erase(it);
      fn();
    }
  }

  void run_posted() {
    if (!posted_pending.load(std::memory_order_acquire)) return;
    {
      std::lock_guard lock(post_mu);
      posted_scratch.swap(posted);
      posted_pending.store(false, std::memory_order_relaxed);
    }
    for (auto& task : posted_scratch) task();
    posted_scratch.clear();
  }

  /// Publish intent to sleep, then re-check for work (see mark_dirty).
  /// Returns the epoll_wait timeout: 0 when work is already waiting, else
  /// up to the next timer, the drain deadline, or 100 ms.
  int arm_sleep() {
    int timeout_ms = 100;
    if (!timers.empty()) {
      Clock::time_point next = timers.front().due;
      for (const Timer& timer : timers) next = std::min(next, timer.due);
      const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               next - Clock::now())
                               .count();
      const auto wait_ms = wait_ns <= 0 ? 0 : (wait_ns + 999'999) / 1'000'000;
      timeout_ms = static_cast<int>(std::min<long long>(timeout_ms, wait_ms));
    }
    if (stopping.load(std::memory_order_relaxed)) {
      timeout_ms = std::min(timeout_ms, 5);
    }
    loop_asleep.store(true, std::memory_order_seq_cst);
    if (!dirty.empty() || any_staged.load(std::memory_order_seq_cst) ||
        posted_pending.load(std::memory_order_seq_cst)) {
      loop_asleep.store(false, std::memory_order_relaxed);
      return 0;
    }
    return timeout_ms;
  }

  /// Anything accepted for writing but not yet written (drain check).
  bool has_queued_output() const {
    if (!dirty.empty()) return true;
    for (const auto& conn : conns) {
      if (conn->fd < 0) continue;
      if (conn->front_off < conn->front.size() || !conn->back.empty() ||
          conn->stage_dirty.load(std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  void run_loop() {
    tls_loop = this;
    obs::set_thread_name("rlb-net");
    std::vector<epoll_event> events(512);
    for (;;) {
      const int timeout = arm_sleep();
      const int ready = ::epoll_wait(epoll_fd, events.data(),
                                     static_cast<int>(events.size()), timeout);
      loop_asleep.store(false, std::memory_order_seq_cst);
      if (ready < 0 && errno != EINTR) break;
      // Checked before the pass, so stop(0) writes nothing more.
      const bool draining = stopping.load(std::memory_order_acquire);
      if (draining) {
        close_watches();
        if (Clock::now() >= drain_deadline || !has_queued_output()) break;
      }
      for (int i = 0; i < ready; ++i) {
        const epoll_event& ev = events[static_cast<std::size_t>(i)];
        if (ev.data.u64 == kWakeTag) {
          std::uint8_t drain[256];
          while (::read(wake_read, drain, sizeof(drain)) > 0) {
          }
        } else if (ev.data.u64 < conns.size()) {
          handle_conn_event(static_cast<std::size_t>(ev.data.u64), ev.events);
        } else if (!draining) {
          watches[static_cast<std::size_t>(kWatchTag - ev.data.u64)].on_ready();
        }
      }
      run_posted();
      run_timers();
      write_dirty();
    }
    close_all();
    // Tasks posted after the loop's last pass still run, here, so no
    // run() caller waits forever; later ones run inline in their caller.
    {
      std::lock_guard lock(post_mu);
      accepting_posts = false;
    }
    posted_pending.store(true, std::memory_order_relaxed);
    run_posted();
    tls_loop = nullptr;
  }

  const std::size_t accepted_slots;
  const std::size_t max_outbound_bytes;
  int epoll_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::thread loop_thread;
  bool running = false;  ///< start()/stop() caller side
  std::atomic<bool> stopping{false};
  /// Written before `stopping` is released; read by the loop after.
  Clock::time_point drain_deadline;

  std::vector<std::unique_ptr<Conn>> conns;
  // Loop-private.
  std::vector<std::size_t> free_accepted;
  std::vector<std::size_t> free_dialed;
  std::vector<std::size_t> dirty;
  std::vector<std::size_t> dirty_scratch;
  struct Watch {
    int fd = -1;
    std::function<void()> on_ready;
  };
  std::vector<Watch> watches;
  std::vector<Timer> timers;
  std::vector<std::pair<Clock::time_point, TimerId>> due_scratch;
  TimerId next_timer = 0;

  /// Some connection's stage_dirty rose since the loop last looked.
  std::atomic<bool> any_staged{false};
  /// True only while the loop is (about to be) blocked in epoll_wait.
  std::atomic<bool> loop_asleep{false};

  std::mutex post_mu;
  std::condition_variable post_cv;
  bool accepting_posts = false;
  std::vector<std::function<void()>> posted;
  std::vector<std::function<void()>> posted_scratch;
  std::atomic<bool> posted_pending{false};
};

Reactor::Reactor(std::size_t accepted_slots, std::size_t max_outbound_bytes)
    : impl_(std::make_unique<Impl>(accepted_slots, max_outbound_bytes)) {}

Reactor::~Reactor() { stop(0); }

void Reactor::start() {
  if (impl_->running) return;
  impl_->running = true;
  impl_->stopping.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(impl_->post_mu);
    impl_->accepting_posts = true;
  }
  impl_->loop_thread = std::thread([this] { impl_->run_loop(); });
}

void Reactor::stop(std::uint64_t flush_timeout_ms) {
  if (!impl_->running) return;
  impl_->drain_deadline =
      Clock::now() + std::chrono::milliseconds(flush_timeout_ms);
  impl_->stopping.store(true, std::memory_order_release);
  impl_->wake();
  if (impl_->loop_thread.joinable()) impl_->loop_thread.join();
  impl_->running = false;
}

bool Reactor::in_loop() const noexcept { return impl_->in_loop(); }

std::uint64_t Reactor::add(int fd, ConnHandler* handler, Kind kind) {
  return impl_->add(fd, handler, kind);
}

void Reactor::close(std::uint64_t token) {
  const std::size_t slot = slot_of(token);
  if (slot < impl_->conns.size() && impl_->alive(slot, token)) {
    impl_->close_conn(slot, CloseCause::kClosed);
  }
}

void Reactor::watch(int fd, std::function<void()> on_ready) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.u64 = kWatchTag - impl_->watches.size();
  impl_->watches.push_back(Impl::Watch{fd, std::move(on_ready)});
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

Reactor::TimerId Reactor::call_after(std::uint64_t delay_ms,
                                     std::function<void()> fn) {
  const TimerId id = ++impl_->next_timer;
  impl_->timers.push_back(Impl::Timer{
      id, Clock::now() + std::chrono::milliseconds(delay_ms), std::move(fn)});
  return id;
}

void Reactor::cancel(TimerId id) {
  auto& timers = impl_->timers;
  timers.erase(std::remove_if(timers.begin(), timers.end(),
                              [id](const Impl::Timer& t) { return t.id == id; }),
               timers.end());
}

void Reactor::run(const std::function<void()>& task) {
  if (impl_->in_loop()) {
    task();
    return;
  }
  std::unique_lock lock(impl_->post_mu);
  if (!impl_->accepting_posts) {
    lock.unlock();
    task();
    return;
  }
  bool done = false;
  impl_->posted.push_back([this, &task, &done] {
    task();
    std::lock_guard done_lock(impl_->post_mu);
    done = true;
    impl_->post_cv.notify_all();
  });
  impl_->posted_pending.store(true, std::memory_order_seq_cst);
  lock.unlock();
  impl_->wake();
  lock.lock();
  impl_->post_cv.wait(lock, [&done] { return done; });
}

std::vector<std::uint8_t>& Reactor::scratch() {
  thread_local std::vector<std::uint8_t> frame;
  return frame;
}

std::vector<std::uint8_t>* Reactor::drain_buffer(std::uint64_t token) {
  const std::size_t slot = slot_of(token);
  if (slot >= impl_->conns.size() || !impl_->alive(slot, token)) {
    return nullptr;
  }
  Impl::Conn& conn = *impl_->conns[slot];
  if (!conn.listed) {
    conn.listed = true;
    impl_->dirty.push_back(slot);
  }
  return &conn.back;
}

bool Reactor::send(std::uint64_t token, const std::uint8_t* data,
                   std::size_t size, bool wake) {
  if (impl_->in_loop()) {
    std::vector<std::uint8_t>* out = drain_buffer(token);
    if (out == nullptr) return false;
    out->insert(out->end(), data, data + size);
    return true;
  }
  const std::size_t slot = slot_of(token);
  if (slot >= impl_->conns.size()) return false;
  Impl::Conn& conn = *impl_->conns[slot];
  {
    std::lock_guard lock(conn.stage_mu);
    if (!conn.open || conn.gen != gen_of(token)) return false;
    conn.staged.insert(conn.staged.end(), data, data + size);
  }
  if (wake) impl_->mark_dirty(conn);
  return true;
}

bool Reactor::flush(std::uint64_t token) {
  const std::size_t slot = slot_of(token);
  if (slot >= impl_->conns.size()) return false;
  Impl::Conn& conn = *impl_->conns[slot];
  {
    std::lock_guard lock(conn.stage_mu);
    if (!conn.open || conn.gen != gen_of(token)) return false;
  }
  impl_->mark_dirty(conn);
  return true;
}

}  // namespace rlb::net
