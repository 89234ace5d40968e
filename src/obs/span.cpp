#include "obs/span.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <set>

#include "obs/trace.hpp"

namespace rlb::obs {

namespace detail {
std::atomic<bool> g_spans_enabled{false};
}  // namespace detail

void set_span_recording(bool on) noexcept {
  detail::g_spans_enabled.store(on, std::memory_order_relaxed);
}

namespace {

constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t next_span_id() noexcept {
  // Ids must not collide across the processes of one cluster run: derive a
  // per-process base from the pid and the wall clock, then scramble a
  // counter through it.  Not cryptographic — just collision-unlikely.
  static const std::uint64_t base = splitmix64(
      (static_cast<std::uint64_t>(::getpid()) << 48) ^
      static_cast<std::uint64_t>(
          std::chrono::system_clock::now().time_since_epoch().count()));
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id =
      splitmix64(base + counter.fetch_add(1, std::memory_order_relaxed));
  return id == 0 ? 1 : id;
}

std::uint64_t wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder recorder;
  return recorder;
}

SpanRecorder::Ring& SpanRecorder::local_ring() {
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    auto owned = std::make_unique<Ring>();
    owned->capacity = ring_capacity_.load(std::memory_order_relaxed);
    ring = owned.get();
    std::lock_guard lock(registry_mutex_);
    rings_.push_back(std::move(owned));
  }
  return *ring;
}

void SpanRecorder::record(const Span& span) {
  const std::uint64_t budget =
      slow_budget_ns_.load(std::memory_order_relaxed);
  const bool slow =
      budget != 0 && span.end_ns - span.start_ns >= budget;
  const bool keep =
      (span.flags & kSpanSampled) != 0 || span.cause != 0 || slow;
  if (!keep) {
    filtered_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Ring& ring = local_ring();
  std::lock_guard lock(ring.mutex);
  if (ring.spans.size() >= ring.capacity) ring.spans.pop_front();
  ring.spans.push_back(span);
  ring.spans.back().seq = next_seq_.fetch_add(1);
}

JournalReadResult SpanRecorder::read_from(std::uint64_t cursor,
                                          std::size_t max,
                                          std::vector<Span>& out) const {
  // Snapshot the counter first: every seq below `end` is then stored or
  // evicted by the time we hold its ring's lock (its writer took the seq
  // under that lock), so the seq-ordered merge below never steps over a
  // span a late writer has yet to store.
  const std::uint64_t end = next_seq_.load();
  JournalReadResult result;
  result.next_cursor = cursor;
  if (cursor >= end - 1) return result;  // nothing past the cursor yet
  const auto after = [](std::uint64_t seq, const Span& s) {
    return seq < s.seq;
  };
  // Each ring contributes at most its `max` oldest unread spans: only the
  // `max` smallest seqs overall can make the batch.
  std::vector<Span> merged;
  std::uint64_t unread = 0;
  {
    std::lock_guard registry_lock(registry_mutex_);
    for (const std::unique_ptr<Ring>& ring : rings_) {
      std::lock_guard lock(ring->mutex);
      const auto first = std::upper_bound(ring->spans.begin(),
                                          ring->spans.end(), cursor, after);
      const auto last =
          std::upper_bound(first, ring->spans.end(), end - 1, after);
      unread += static_cast<std::uint64_t>(last - first);
      merged.insert(merged.end(), first,
                    first + std::min<std::ptrdiff_t>(
                                last - first,
                                static_cast<std::ptrdiff_t>(max)));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Span& a, const Span& b) { return a.seq < b.seq; });
  const std::size_t take = std::min(max, merged.size());
  out.insert(out.end(), merged.begin(), merged.begin() + take);
  if (take == unread) {
    result.next_cursor = end - 1;  // everything below the snapshot is seen
  } else if (take > 0) {
    result.next_cursor = merged[take - 1].seq;
  }
  result.remaining = unread - take;
  result.dropped = result.next_cursor - cursor - take;
  return result;
}

std::vector<Span> SpanRecorder::drain(std::size_t max_spans) {
  std::vector<Span> out;
  std::lock_guard lock(drain_mutex_);
  drain_cursor_ = read_from(drain_cursor_, max_spans, out).next_cursor;
  return out;
}

std::vector<Span> SpanRecorder::collect() const {
  std::vector<Span> out;
  std::lock_guard registry_lock(registry_mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    std::lock_guard lock(ring->mutex);
    out.insert(out.end(), ring->spans.begin(), ring->spans.end());
  }
  return out;
}

std::size_t SpanRecorder::size() const {
  std::size_t total = 0;
  std::lock_guard registry_lock(registry_mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    std::lock_guard lock(ring->mutex);
    total += ring->spans.size();
  }
  return total;
}

void SpanRecorder::set_ring_capacity(std::size_t capacity) noexcept {
  ring_capacity_.store(capacity == 0 ? 1 : capacity,
                       std::memory_order_relaxed);
}

void SpanRecorder::clear() {
  std::scoped_lock locks(drain_mutex_, registry_mutex_);
  for (const std::unique_ptr<Ring>& ring : rings_) {
    std::lock_guard lock(ring->mutex);
    ring->spans.clear();
  }
  filtered_.store(0, std::memory_order_relaxed);
  drain_cursor_ = next_seq_.load() - 1;
}

// -- JSONL persistence ----------------------------------------------------

namespace {

void write_span_name(std::ostream& os, const char* s) {
  os << '"';
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      os << buffer;
    } else {
      os << c;
    }
  }
  os << '"';
}

bool span_string_field(const std::string& line, const std::string& key,
                       std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::string value;
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      value.push_back(line[++i]);
      continue;
    }
    if (c == '"') {
      out = value;
      return true;
    }
    value.push_back(c);
  }
  return false;
}

bool span_u64_field(const std::string& line, const std::string& key,
                    std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + needle.size();
  char* end = nullptr;
  out = std::strtoull(p, &end, 10);
  return end != p;
}

}  // namespace

const char* intern_span_name(std::string_view name) {
  static std::mutex mutex;
  static std::set<std::string, std::less<>> pool;
  std::lock_guard lock(mutex);
  auto it = pool.find(name);
  if (it == pool.end()) it = pool.emplace(name).first;
  return it->c_str();
}

void write_spans_jsonl(const std::vector<Span>& spans, std::ostream& os,
                       std::uint64_t steady_ns, std::uint64_t wall_ns) {
  if (steady_ns != 0 || wall_ns != 0) {
    os << "{\"anchor\":1,\"steady_ns\":" << steady_ns
       << ",\"wall_ns\":" << wall_ns << "}\n";
  }
  for (const Span& s : spans) {
    os << "{\"trace_id\":" << s.trace_id << ",\"span_id\":" << s.span_id
       << ",\"parent_span_id\":" << s.parent_span_id
       << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
       << ",\"queue_depth\":" << s.queue_depth << ",\"name\":";
    write_span_name(os, s.name);
    os << ",\"shard\":" << s.shard << ",\"tid\":" << s.tid
       << ",\"flags\":" << static_cast<unsigned>(s.flags)
       << ",\"cause\":" << static_cast<unsigned>(s.cause) << "}\n";
  }
}

std::vector<Span> parse_spans_jsonl(std::istream& is,
                                    std::uint64_t& anchor_steady_ns,
                                    std::uint64_t& anchor_wall_ns) {
  std::vector<Span> spans;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::uint64_t anchor_marker = 0;
    if (span_u64_field(line, "anchor", anchor_marker) && anchor_marker != 0) {
      span_u64_field(line, "steady_ns", anchor_steady_ns);
      span_u64_field(line, "wall_ns", anchor_wall_ns);
      continue;
    }
    Span s;
    std::string name;
    if (!span_u64_field(line, "trace_id", s.trace_id) ||
        !span_u64_field(line, "span_id", s.span_id) ||
        !span_u64_field(line, "start_ns", s.start_ns) ||
        !span_string_field(line, "name", name)) {
      continue;
    }
    s.name = intern_span_name(name);
    span_u64_field(line, "parent_span_id", s.parent_span_id);
    span_u64_field(line, "end_ns", s.end_ns);
    span_u64_field(line, "queue_depth", s.queue_depth);
    std::uint64_t scratch = 0;
    if (span_u64_field(line, "shard", scratch)) {
      s.shard = static_cast<std::uint32_t>(scratch);
    }
    if (span_u64_field(line, "tid", scratch)) {
      s.tid = static_cast<std::uint32_t>(scratch);
    }
    if (span_u64_field(line, "flags", scratch)) {
      s.flags = static_cast<std::uint8_t>(scratch);
    }
    if (span_u64_field(line, "cause", scratch)) {
      s.cause = static_cast<std::uint8_t>(scratch);
    }
    spans.push_back(s);
  }
  return spans;
}

// -- Global span file ------------------------------------------------------

namespace {

struct GlobalSpanFile {
  std::string path;
  bool atexit_registered = false;
};

GlobalSpanFile& global_span_file() {
  static GlobalSpanFile g;
  return g;
}

std::mutex g_span_file_mutex;

void flush_spans_at_exit() {
  if (!flush_spans()) {
    std::fprintf(stderr, "rlb: failed to write span file\n");
  }
}

}  // namespace

void set_span_file(const std::string& path) {
  // Construct the recorder singleton *before* registering the at-exit
  // flush: atexit callbacks and static destructors run off one LIFO list,
  // so a recorder first constructed later (by the first record(), often on
  // a worker thread) would be destroyed before the flush reads it.
  SpanRecorder::instance();
  now_ns();  // pin the steady epoch too, so the anchor predates all spans
  std::lock_guard lock(g_span_file_mutex);
  GlobalSpanFile& g = global_span_file();
  g.path = path;
  set_span_recording(true);
  if (!g.atexit_registered) {
    g.atexit_registered = true;
    std::atexit(&flush_spans_at_exit);
  }
}

bool flush_spans() {
  std::lock_guard lock(g_span_file_mutex);
  GlobalSpanFile& g = global_span_file();
  if (g.path.empty()) return false;
  // Write-to-temp + rename: a reader (or a crash mid-write) never sees a
  // truncated mid-record file.
  const std::string tmp = g.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_spans_jsonl(SpanRecorder::instance().collect(), out, now_ns(),
                      wall_now_ns());
    if (!out.good()) return false;
  }
  return std::rename(tmp.c_str(), g.path.c_str()) == 0;
}

}  // namespace rlb::obs
