#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <set>
#include <string>

namespace rlb::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<bool> g_detail{false};
}  // namespace detail

namespace {

std::atomic<TraceSink*> g_sink{nullptr};

struct KindName {
  EventKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kSubmit, "submit"},
    {EventKind::kRoute, "route"},
    {EventKind::kEnqueue, "enqueue"},
    {EventKind::kServe, "serve"},
    {EventKind::kReject, "reject"},
    {EventKind::kFlush, "flush"},
    {EventKind::kPhaseBegin, "phase-begin"},
    {EventKind::kPArrival, "p-arrival"},
    {EventKind::kKickChain, "kick-chain"},
    {EventKind::kStashHit, "stash-hit"},
    {EventKind::kAssignFail, "assign-fail"},
    {EventKind::kMigration, "migration"},
    {EventKind::kFault, "fault"},
    {EventKind::kScope, "scope"},
    {EventKind::kCounter, "counter"},
};

}  // namespace

const char* to_string(EventKind kind) noexcept {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

bool kind_from_string(const std::string& s, EventKind& out) noexcept {
  for (const KindName& entry : kKindNames) {
    if (s == entry.name) {
      out = entry.kind;
      return true;
    }
  }
  return false;
}

RingTraceCollector::RingTraceCollector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void RingTraceCollector::record(const TraceEvent& event) {
  std::lock_guard lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % capacity_;
  }
  ++recorded_;
}

std::vector<TraceEvent> RingTraceCollector::events() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest-first: when the ring has wrapped, the oldest lives at next_.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t RingTraceCollector::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t RingTraceCollector::dropped() const {
  std::lock_guard lock(mutex_);
  return recorded_ - ring_.size();
}

void RingTraceCollector::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_detail(bool on) noexcept {
  detail::g_detail.store(on, std::memory_order_relaxed);
}

void set_sink(TraceSink* sink) noexcept {
  g_sink.store(sink, std::memory_order_release);
}

TraceSink* sink() noexcept { return g_sink.load(std::memory_order_acquire); }

std::uint64_t now_ns() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch)
          .count());
}

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

void emit(EventKind kind, const char* name, std::uint64_t a0,
          std::uint64_t a1) {
  TraceSink* s = sink();
  if (s == nullptr) return;
  TraceEvent event;
  event.kind = kind;
  event.name = name;
  event.ts_ns = now_ns();
  event.a0 = a0;
  event.a1 = a1;
  event.tid = thread_index();
  s->record(event);
}

void emit_scope(const char* name, std::uint64_t start_ns,
                std::uint64_t dur_ns, std::uint64_t a0) {
  TraceSink* s = sink();
  if (s == nullptr) return;
  TraceEvent event;
  event.kind = EventKind::kScope;
  event.name = name;
  event.ts_ns = start_ns;
  event.dur_ns = dur_ns;
  event.a0 = a0;
  event.tid = thread_index();
  s->record(event);
}

// -- Exporters -----------------------------------------------------------

namespace {

/// Escape for JSON string context (names are ASCII identifiers in practice;
/// this keeps the exporter safe for arbitrary input anyway).
void write_json_string(std::ostream& os, const char* s) {
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

}  // namespace

void write_jsonl(const std::vector<TraceEvent>& events, std::ostream& os) {
  for (const TraceEvent& e : events) {
    os << "{\"kind\":\"" << to_string(e.kind) << "\",\"name\":";
    write_json_string(os, e.name);
    os << ",\"ts_ns\":" << e.ts_ns << ",\"dur_ns\":" << e.dur_ns
       << ",\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << ",\"tid\":" << e.tid
       << "}\n";
  }
}

namespace {

/// Extract the string value of `key` from a single-line JSON object emitted
/// by write_jsonl (flat object, no nested strings containing braces).
bool jsonl_string_field(const std::string& line, const std::string& key,
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

bool jsonl_u64_field(const std::string& line, const std::string& key,
                     std::uint64_t& out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const char* p = line.c_str() + at + needle.size();
  char* end = nullptr;
  out = std::strtoull(p, &end, 10);
  return end != p;
}

/// Names parsed from JSONL must outlive the returned events; intern them.
const char* intern_name(const std::string& name) {
  static std::mutex mutex;
  static std::set<std::string> pool;
  std::lock_guard lock(mutex);
  return pool.insert(name).first->c_str();
}

}  // namespace

std::vector<TraceEvent> parse_jsonl(std::istream& is) {
  std::vector<TraceEvent> events;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::string kind_s;
    std::string name;
    TraceEvent e;
    if (!jsonl_string_field(line, "kind", kind_s) ||
        !kind_from_string(kind_s, e.kind)) {
      continue;
    }
    if (!jsonl_string_field(line, "name", name)) continue;
    e.name = intern_name(name);
    std::uint64_t tid = 0;
    if (!jsonl_u64_field(line, "ts_ns", e.ts_ns)) continue;
    jsonl_u64_field(line, "dur_ns", e.dur_ns);
    jsonl_u64_field(line, "a0", e.a0);
    jsonl_u64_field(line, "a1", e.a1);
    jsonl_u64_field(line, "tid", tid);
    e.tid = static_cast<std::uint32_t>(tid);
    events.push_back(e);
  }
  return events;
}

void write_chrome_trace(const std::vector<TraceEvent>& events,
                        std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) os << ',';
    first = false;
    // Timestamps are microseconds in the trace-event format; keep ns
    // resolution with a fractional part.
    const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
    os << "\n{\"name\":";
    write_json_string(os, e.name);
    os << ",\"cat\":\"" << to_string(e.kind) << "\",\"pid\":1,\"tid\":"
       << e.tid << ",\"ts\":" << ts_us;
    switch (e.kind) {
      case EventKind::kScope:
        os << ",\"ph\":\"X\",\"dur\":"
           << static_cast<double>(e.dur_ns) / 1000.0;
        break;
      case EventKind::kCounter:
      case EventKind::kPArrival:
        os << ",\"ph\":\"C\"";
        break;
      default:
        os << ",\"ph\":\"i\",\"s\":\"t\"";
        break;
    }
    if (e.kind == EventKind::kCounter || e.kind == EventKind::kPArrival) {
      // Counter tracks plot args values; a0 identifies the series (e.g.
      // which P_j), a1 carries the sampled value.
      os << ",\"args\":{\"value\":" << e.a1 << ",\"key\":" << e.a0 << "}";
    } else {
      os << ",\"args\":{\"a0\":" << e.a0 << ",\"a1\":" << e.a1 << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

// -- Global trace file ---------------------------------------------------

namespace {

struct GlobalTraceFile {
  std::unique_ptr<RingTraceCollector> collector;
  std::string path;
  TraceFormat format = TraceFormat::kChrome;
  bool atexit_registered = false;
};

GlobalTraceFile& global_trace_file() {
  static GlobalTraceFile g;
  return g;
}

std::mutex g_trace_file_mutex;

void flush_trace_at_exit() {
  // Only registered once a trace file is configured, so a false return here
  // is a genuine write failure, not "nothing to flush".
  if (!flush_trace()) {
    std::fprintf(stderr, "rlb: failed to write trace file\n");
  }
}

}  // namespace

void set_trace_file(const std::string& path) {
  const bool jsonl =
      path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0;
  set_trace_file(path, jsonl ? TraceFormat::kJsonl : TraceFormat::kChrome);
}

void set_trace_file(const std::string& path, TraceFormat format,
                    std::size_t ring_capacity) {
  std::lock_guard lock(g_trace_file_mutex);
  GlobalTraceFile& g = global_trace_file();
  if (!g.collector || g.collector->capacity() != ring_capacity) {
    set_sink(nullptr);
    g.collector = std::make_unique<RingTraceCollector>(ring_capacity);
  }
  g.path = path;
  g.format = format;
  set_sink(g.collector.get());
  set_enabled(true);
  if (!g.atexit_registered) {
    g.atexit_registered = true;
    std::atexit(&flush_trace_at_exit);
  }
}

bool flush_trace() {
  std::lock_guard lock(g_trace_file_mutex);
  GlobalTraceFile& g = global_trace_file();
  if (!g.collector || g.path.empty()) return false;
  // Write-to-temp + atomic rename: flushing used to truncate the target in
  // place, so a reader racing the flush (or a kill mid-write) could observe
  // a file cut off mid-record.  With the rename, the target either holds
  // the previous complete flush or the new one — never a prefix.
  const std::string tmp = g.path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    const std::vector<TraceEvent> events = g.collector->events();
    if (g.format == TraceFormat::kJsonl) {
      write_jsonl(events, out);
    } else {
      write_chrome_trace(events, out);
    }
    if (!out.good()) return false;
  }
  return std::rename(tmp.c_str(), g.path.c_str()) == 0;
}

}  // namespace rlb::obs
