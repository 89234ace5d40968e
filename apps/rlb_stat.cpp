// rlb_stat — poll a running rlbd for its live metrics snapshot.
//
// Opens a dedicated admin connection (STATS frames never share a
// connection with request traffic), sends one STATS frame per poll, and
// renders the STATS_RESP snapshot: an aligned per-shard table plus the
// safe-set monitor by default, Prometheus text with --prom, one JSON line
// with --json, or a continuously refreshed view with --watch (which also
// shows per-interval deltas between scrapes next to lifetime counters).
//
// --events and --spans read the daemons' sequenced rings over the EVENTS
// opcode: every endpoint (the single --host/--port target, or the
// --cluster list) is read by cursor, and each batch is placed on this
// process's wall clock by net::clock_offset_ns (RTT-midpoint anchor
// alignment).  --events merges the control-plane journals into one
// timeline (--follow keeps tailing new events); --spans merges the span
// flight recorders, plus loadgen --span-file JSONL, into cross-process
// request trees.  Reads never remove records, so scrapers coexist.
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "cluster/router.hpp"
#include "harness/flags.hpp"
#include "net/client.hpp"
#include "net/events_wire.hpp"
#include "net/stats.hpp"
#include "obs/journal.hpp"
#include "obs/span.hpp"
#include "report/table.hpp"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void handle_signal(int) { g_stop_requested = 1; }

/// Per-interval deltas between two consecutive --watch scrapes.
struct WatchDelta {
  double seconds = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
};

/// `<key>_<unit>: count=.. p50=.. p95=.. p99=.. max=..` for one histogram.
void print_histogram(const rlb::net::HistogramDesc& desc,
                     const rlb::obs::LogHistogram& h) {
  std::cout << desc.key << (*desc.unit ? "_" : "") << desc.unit
            << ": count=" << h.count << " p50=" << h.quantile(0.5)
            << " p95=" << h.quantile(0.95) << " p99=" << h.quantile(0.99)
            << " max=" << h.max << "\n";
}

/// Windowed p50/p99 beside the lifetime ones, when the window has samples.
void print_window(const rlb::net::HistogramDesc& desc,
                  const rlb::obs::LogHistogram& window,
                  const rlb::obs::LogHistogram& lifetime) {
  if (window.count == 0) return;
  std::cout << "  win_" << desc.key << "_" << desc.unit
            << ": p50=" << window.quantile(0.5)
            << " p99=" << window.quantile(0.99)
            << " (lifetime p50=" << lifetime.quantile(0.5)
            << " p99=" << lifetime.quantile(0.99) << ")\n";
}

void print_pretty(const rlb::net::StatsSnapshot& snapshot,
                  const WatchDelta* delta = nullptr) {
  using rlb::report::Table;
  namespace net = rlb::net;
  const net::ShardStats totals = snapshot.totals();

  std::cout << net::to_string(snapshot.role) << " " << snapshot.policy
            << " id=" << snapshot.backend_id << " m=" << snapshot.servers
            << " d=" << snapshot.replication << " g="
            << snapshot.processing_rate << " q=" << snapshot.queue_capacity
            << " shards=" << snapshot.shard_count << " uptime="
            << snapshot.uptime_ms / 1000 << "s\n";

  // One row per STATS field, one column per shard (a router: per backend)
  // plus the merged total.
  std::vector<std::string> headers{"field"};
  for (const net::ShardStats& s : snapshot.shards) {
    headers.push_back(
        (snapshot.role == net::NodeRole::kRouter ? "backend " : "shard ") +
        std::to_string(s.shard));
  }
  headers.push_back("total");
  Table shards(headers);
  for (const net::FieldDesc<net::ShardStats>& f : net::kShardFields) {
    shards.row().cell(f.key);
    for (const net::ShardStats& s : snapshot.shards) shards.cell(s.*f.member);
    shards.cell(totals.*f.member);
  }
  shards.print(std::cout);

  // Histograms with samples (latency always, so an idle daemon still shows
  // the line).
  for (const net::HistogramDesc& h : net::kHistogramFields) {
    const rlb::obs::LogHistogram& hist = snapshot.*h.member;
    if (hist.count > 0 || h.member == &net::StatsSnapshot::latency) {
      print_histogram(h, hist);
    }
  }

  // Health plane: the trailing-window view.  Windowed quantiles sit next to
  // their lifetime counterparts so an incident's p99 spike is visible even
  // after hours of uptime have diluted the lifetime histogram.
  if (snapshot.window_span_ms > 0) {
    const double span_s =
        static_cast<double>(snapshot.window_span_ms) / 1000.0;
    std::cout << "window (" << span_s << "s): submitted="
              << snapshot.win_submitted << " completed="
              << snapshot.win_completed << " rejected="
              << snapshot.win_rejected << " rps="
              << static_cast<std::uint64_t>(
                     static_cast<double>(snapshot.win_completed) / span_s)
              << "\n";
    for (const net::HistogramDesc& w : net::kWindowHistogramFields) {
      for (const net::HistogramDesc& h : net::kHistogramFields) {
        if (std::string_view(h.key) == w.key) {
          print_window(w, snapshot.*w.member, snapshot.*h.member);
        }
      }
    }
  }

  // --watch: deltas between this scrape and the previous one.
  if (delta != nullptr && delta->seconds > 0.0) {
    const double rps = static_cast<double>(delta->completed) / delta->seconds;
    const std::uint64_t offered = delta->submitted + delta->rejected;
    const double reject_pct =
        offered > 0 ? 100.0 * static_cast<double>(delta->rejected) /
                          static_cast<double>(offered)
                    : 0.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "interval (%.1fs): rps=%.0f submitted=%llu rejected=%llu "
                  "(%.2f%%)",
                  delta->seconds, rps,
                  static_cast<unsigned long long>(delta->submitted),
                  static_cast<unsigned long long>(delta->rejected),
                  reject_pct);
    std::cout << line << "\n";
  }

  if (!snapshot.active_alerts.empty()) {
    std::cout << "ALERTS:";
    for (const std::string& rule : snapshot.active_alerts) {
      std::cout << " " << rule;
    }
    std::cout << "\n";
  }

  // Repair plane: epoch + every repair counter, shown once the cluster has
  // repaired (or is repairing) something.  The counterpart tier's fields
  // read 0.
  bool repairing = snapshot.placement_epoch != 0;
  for (const net::FieldDesc<net::RepairStats>& f : net::kRepairFields) {
    repairing = repairing || snapshot.repair.*f.member != 0;
  }
  if (repairing) {
    std::cout << "repair: epoch=" << snapshot.placement_epoch;
    for (const net::FieldDesc<net::RepairStats>& f : net::kRepairFields) {
      std::cout << " " << f.key << "=" << snapshot.repair.*f.member;
    }
    std::cout << "\n";
  }

  std::cout << "safe-set (Def 3.2): worst_ratio=" << snapshot.safe_worst_ratio
            << (snapshot.safe_violated_level
                    ? " VIOLATED at level " +
                          std::to_string(snapshot.safe_violated_level)
                    : " (safe)")
            << "\n";
  if (!snapshot.safe_set.empty()) {
    Table levels({"level_j", "backlog_gt_j", "bound_m_2j", "ratio"});
    for (const net::SafeSetLevelStats& level : snapshot.safe_set) {
      levels.row()
          .cell(static_cast<std::uint64_t>(level.level))
          .cell(level.observed)
          .cell(level.bound, 2)
          .cell(level.ratio, 3);
    }
    levels.print(std::cout);
  }
}

/// One endpoint's contribution to the --cluster fan-out.
struct ClusterRow {
  rlb::cluster::BackendEndpoint endpoint;
  bool reachable = false;
  /// The node answered with a well-formed snapshot of a different STATS
  /// version (a mid-upgrade daemon): reported as its own row state, not
  /// folded into "unreachable", so a rolling upgrade stays diagnosable.
  bool version_mismatch = false;
  std::uint32_t peer_version = 0;
  rlb::net::StatsSnapshot snapshot;
};

/// Scrape every endpoint once (one dedicated admin connection each).
std::vector<ClusterRow> scrape_cluster(
    const std::vector<rlb::cluster::BackendEndpoint>& endpoints) {
  std::vector<ClusterRow> rows;
  for (const rlb::cluster::BackendEndpoint& endpoint : endpoints) {
    ClusterRow row;
    row.endpoint = endpoint;
    try {
      rlb::net::Client client;
      client.connect(endpoint.host, endpoint.port);
      client.set_recv_timeout_ms(2000);
      client.send_stats_request();
      client.flush();
      row.reachable = client.read_stats_response(row.snapshot);
    } catch (const rlb::net::StatsVersionMismatch& e) {
      row.reachable = true;
      row.version_mismatch = true;
      row.peer_version = e.peer_version();
    } catch (const std::exception&) {
      row.reachable = false;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Backend rows folded by the table's merge rules.  Backends only: a
/// router relays what backends serve, so summing the two tiers would
/// double-count completions.
rlb::net::ShardStats backend_totals(const std::vector<ClusterRow>& rows) {
  rlb::net::ShardStats totals;
  for (const ClusterRow& row : rows) {
    if (row.reachable && !row.version_mismatch &&
        row.snapshot.role == rlb::net::NodeRole::kBackend) {
      rlb::net::merge_fields(totals, row.snapshot.totals(),
                             rlb::net::kShardFields);
    }
  }
  return totals;
}

/// One column per endpoint plus the backend total; identity rows, then
/// one row per STATS field.
void print_cluster_pretty(const std::vector<ClusterRow>& rows) {
  namespace net = rlb::net;
  using rlb::report::Table;
  std::vector<std::string> headers{"field"};
  for (const ClusterRow& row : rows) {
    headers.push_back(row.endpoint.host + ":" +
                      std::to_string(row.endpoint.port));
  }
  headers.push_back("backends");
  Table table(headers);
  table.row().cell("role");
  for (const ClusterRow& row : rows) {
    if (!row.reachable) {
      table.cell("unreachable");
    } else if (row.version_mismatch) {
      table.cell("version mismatch (v" + std::to_string(row.peer_version) +
                 ")");
    } else {
      table.cell(net::to_string(row.snapshot.role));
    }
  }
  table.cell("total");
  // A per-endpoint row: `value(snapshot)` for the usable endpoints, blank
  // for the rest, `total` in the backends column.
  auto add_row = [&](const char* name, auto value, const std::string& total) {
    table.row().cell(name);
    for (const ClusterRow& row : rows) {
      if (row.reachable && !row.version_mismatch) {
        table.cell(value(row.snapshot));
      } else {
        table.cell("");
      }
    }
    table.cell(total);
  };
  using Snap = net::StatsSnapshot;
  add_row("id", [](const Snap& s) { return std::to_string(s.backend_id); }, "");
  add_row("policy", [](const Snap& s) { return s.policy; }, "");
  add_row("m", [](const Snap& s) { return std::to_string(s.servers); }, "");
  add_row("epoch",
          [](const Snap& s) { return std::to_string(s.placement_epoch); }, "");
  add_row("latency_p99_us",
          [](const Snap& s) {
            return std::to_string(s.latency.quantile(0.99));
          },
          "");
  add_row("uptime_s",
          [](const Snap& s) { return std::to_string(s.uptime_ms / 1000); }, "");
  const net::ShardStats totals = backend_totals(rows);
  for (const net::FieldDesc<net::ShardStats>& f : net::kShardFields) {
    add_row(f.key,
            [&f](const Snap& s) {
              return std::to_string(s.totals().*f.member);
            },
            std::to_string(totals.*f.member));
  }
  table.print(std::cout);
}

void print_cluster_json(const std::vector<ClusterRow>& rows) {
  std::cout << "{\"endpoints\":[";
  bool first = true;
  for (const ClusterRow& row : rows) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << "{\"endpoint\":\"" << row.endpoint.host << ":"
              << row.endpoint.port << "\",\"reachable\":"
              << (row.reachable ? "true" : "false");
    if (row.version_mismatch) {
      std::cout << ",\"version_mismatch\":true,\"peer_version\":"
                << row.peer_version << "}";
      continue;
    }
    if (row.reachable) {
      std::cout << ",\"snapshot\":" << rlb::net::render_json(row.snapshot);
    }
    std::cout << "}";
  }
  const rlb::net::ShardStats totals = backend_totals(rows);
  std::cout << "],\"backend_totals\":{"
            << rlb::net::json_fields(totals, rlb::net::kShardFields)
            << ",\"rejected\":" << totals.rejected_total() << "}}\n";
}

// ---------------------------------------------------------------------------
// Ring reads: --events (the journal) and --spans (the span recorder) share
// one cursor-read loop and one clock alignment.

/// "router" / "backend-<id>", from a batch's identity header.
std::string node_label(const rlb::net::EventsSnapshot& snap) {
  return snap.role == rlb::net::NodeRole::kRouter
             ? "router"
             : "backend-" + std::to_string(snap.backend_id);
}

/// Cursor-read one endpoint's ring until it reports nothing remaining.
/// Each batch reaches `on_batch` with the offset that maps its
/// steady-clock timestamps onto this process's wall clock.  Throws on I/O
/// and protocol errors.
template <typename OnBatch>
void read_ring(const rlb::cluster::BackendEndpoint& endpoint,
               rlb::net::RingId ring, std::uint64_t& cursor,
               OnBatch&& on_batch) {
  rlb::net::Client client;
  client.connect(endpoint.host, endpoint.port);
  client.set_recv_timeout_ms(2000);
  for (;;) {
    const std::uint64_t sent_wall = rlb::obs::wall_now_ns();
    client.send_events_request(cursor, ring);
    client.flush();
    rlb::net::EventsSnapshot snap;
    if (!client.read_events_response(snap)) {
      throw std::runtime_error("connection closed");
    }
    const std::int64_t offset = rlb::net::clock_offset_ns(
        sent_wall, rlb::obs::wall_now_ns(), snap.steady_ns);
    cursor = snap.next_cursor;
    on_batch(snap, offset);
    if (snap.remaining == 0) return;
  }
}

std::string endpoint_name(const rlb::cluster::BackendEndpoint& endpoint) {
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

// -- --events: merged control-plane timeline.

/// One journal event mapped onto the scraper's wall clock.
struct AlignedEvent {
  std::string source;  ///< "router" / "backend-<id>" / "host:port"
  std::uint64_t wall_ns = 0;
  rlb::net::EventRecord record;
};

/// Per-endpoint read state for --events [--follow].
struct EventsSource {
  rlb::cluster::BackendEndpoint endpoint;
  std::string label;
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;  ///< cumulative ring overflow at this source
  bool reachable = false;
};

/// Read everything past `src.cursor` from one endpoint's journal.
void poll_events(EventsSource& src, std::vector<AlignedEvent>& out) {
  try {
    read_ring(src.endpoint, rlb::net::RingId::kJournal, src.cursor,
              [&](rlb::net::EventsSnapshot& snap, std::int64_t offset) {
                src.label = node_label(snap);
                src.reachable = true;
                src.dropped += snap.dropped;
                for (rlb::net::EventRecord& rec : snap.events) {
                  AlignedEvent ev;
                  ev.source = src.label;
                  ev.wall_ns = static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(rec.steady_ns) + offset);
                  ev.record = std::move(rec);
                  out.push_back(std::move(ev));
                }
              });
  } catch (const std::exception&) {
    src.reachable = false;
  }
}

/// Oldest-first by aligned wall time; per-source seq breaks ties.
void sort_events(std::vector<AlignedEvent>& events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const AlignedEvent& a, const AlignedEvent& b) {
                     if (a.wall_ns != b.wall_ns) return a.wall_ns < b.wall_ns;
                     return a.record.seq < b.record.seq;
                   });
}

std::string format_wall(std::uint64_t wall_ns) {
  const std::time_t secs = static_cast<std::time_t>(wall_ns / 1000000000ULL);
  const unsigned ms = static_cast<unsigned>((wall_ns / 1000000ULL) % 1000);
  std::tm tm_buf{};
  localtime_r(&secs, &tm_buf);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%03u", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec, ms);
  return buf;
}

void print_events_pretty(const std::vector<AlignedEvent>& events) {
  for (const AlignedEvent& ev : events) {
    const rlb::net::EventRecord& r = ev.record;
    std::cout << format_wall(ev.wall_ns) << "  ";
    char src[32];
    std::snprintf(src, sizeof(src), "%-11s", ev.source.c_str());
    std::cout << src << " #" << r.seq << " "
              << rlb::obs::to_string(
                     static_cast<rlb::obs::JournalType>(r.type))
              << " a0=" << r.a0 << " a1=" << r.a1;
    if (!r.detail.empty()) std::cout << " " << r.detail;
    std::cout << "\n";
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
  return out;
}

void print_event_json(const AlignedEvent& ev) {
  const rlb::net::EventRecord& r = ev.record;
  std::cout << "{\"source\":\"" << json_escape(ev.source) << "\",\"seq\":"
            << r.seq << ",\"wall_ns\":" << ev.wall_ns << ",\"steady_ns\":"
            << r.steady_ns << ",\"type\":\""
            << rlb::obs::to_string(static_cast<rlb::obs::JournalType>(r.type))
            << "\",\"a0\":" << r.a0 << ",\"a1\":" << r.a1 << ",\"detail\":\""
            << json_escape(r.detail) << "\"}";
}

void print_events_json(const std::vector<EventsSource>& sources,
                       const std::vector<AlignedEvent>& events) {
  std::cout << "{\"sources\":[";
  bool first = true;
  for (const EventsSource& src : sources) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << "{\"endpoint\":\"" << src.endpoint.host << ":"
              << src.endpoint.port << "\",\"source\":\""
              << json_escape(src.label) << "\",\"reachable\":"
              << (src.reachable ? "true" : "false")
              << ",\"dropped\":" << src.dropped
              << ",\"next_cursor\":" << src.cursor << "}";
  }
  std::cout << "],\"events\":[";
  first = true;
  for (const AlignedEvent& ev : events) {
    if (!first) std::cout << ",";
    first = false;
    print_event_json(ev);
  }
  std::cout << "]}\n";
}

/// The --events entry point: one merged drain, or a --follow tail loop.
int run_events(const std::vector<rlb::cluster::BackendEndpoint>& endpoints,
               bool json, bool follow, std::uint64_t interval_s) {
  std::vector<EventsSource> sources;
  for (const rlb::cluster::BackendEndpoint& endpoint : endpoints) {
    EventsSource src;
    src.endpoint = endpoint;
    src.label = endpoint_name(endpoint);
    sources.push_back(std::move(src));
  }

  bool any_reachable = false;
  do {
    std::vector<AlignedEvent> events;
    for (EventsSource& src : sources) poll_events(src, events);
    sort_events(events);
    for (const EventsSource& src : sources) {
      any_reachable = any_reachable || src.reachable;
      if (!src.reachable && !json && !follow) {
        std::cerr << "rlb_stat: " << src.endpoint.host << ":"
                  << src.endpoint.port << " unreachable\n";
      }
      if (src.dropped > 0 && !json) {
        std::cerr << "rlb_stat: " << src.label << " dropped " << src.dropped
                  << " events (ring wrapped past the cursor)\n";
      }
    }
    if (json) {
      if (follow) {
        // JSONL in follow mode: one self-contained line per event.
        for (const AlignedEvent& ev : events) {
          print_event_json(ev);
          std::cout << "\n";
        }
      } else {
        print_events_json(sources, events);
      }
    } else {
      print_events_pretty(events);
    }
    std::cout.flush();
    if (follow) {
      for (std::uint64_t s = 0; s < interval_s * 10 && !g_stop_requested;
           ++s) {
        ::usleep(100 * 1000);
      }
    }
  } while (follow && !g_stop_requested);
  return any_reachable ? 0 : 1;
}

// -- --spans: merged cross-process span trees.
//
// Each process in the data path (rlb_loadgen -> rlb_router -> rlbd)
// records spans on its own steady clock.  --spans reads the span ring of
// every endpoint, places each batch on this process's wall clock with the
// same alignment as --events, adds loadgen root spans from --span-file
// JSONL (aligned by the file's anchor line: there is no RTT to measure),
// and rebuilds the trees (client.request -> router.request -> router.hop
// per attempt -> engine.request).  The final summary line is
// machine-parseable: traces with >= 2 router.hop spans count as
// `retried`, traces with spans from >= 2 processes as `cross_process`.

/// A span placed on this process's wall clock.
struct PlacedSpan {
  rlb::obs::Span span;
  std::int64_t wall_start_ns = 0;
  std::int64_t wall_end_ns = 0;
  std::uint32_t source = 0;  ///< index into SpanMerge::labels
};

struct SpanMerge {
  std::vector<std::string> labels;  ///< one per process
  std::vector<PlacedSpan> placed;

  void add(const std::string& label, const std::vector<rlb::obs::Span>& spans,
           std::int64_t offset) {
    if (spans.empty()) return;  // a process counts once it has spans
    const auto it = std::find(labels.begin(), labels.end(), label);
    const auto source = static_cast<std::uint32_t>(it - labels.begin());
    if (it == labels.end()) labels.push_back(label);
    for (const rlb::obs::Span& span : spans) {
      placed.push_back({span, static_cast<std::int64_t>(span.start_ns) + offset,
                        static_cast<std::int64_t>(span.end_ns) + offset,
                        source});
    }
  }
};

/// Per-trace rollup used by the summary and tree printer.
struct SpanTree {
  std::vector<std::size_t> spans;  ///< indices into placed, start order
  std::set<std::uint32_t> sources;
  std::size_t hops = 0;
  bool sampled = false;
  bool failed = false;
};

void write_spans_jsonl(const SpanMerge& merge, std::ostream& os) {
  for (const PlacedSpan& p : merge.placed) {
    os << "{\"trace_id\":" << p.span.trace_id
       << ",\"span_id\":" << p.span.span_id
       << ",\"parent_span_id\":" << p.span.parent_span_id << ",\"name\":\""
       << json_escape(p.span.name) << "\",\"proc\":\""
       << json_escape(merge.labels[p.source])
       << "\",\"wall_start_ns\":" << p.wall_start_ns
       << ",\"wall_end_ns\":" << p.wall_end_ns
       << ",\"shard\":" << p.span.shard << ",\"tid\":" << p.span.tid
       << ",\"queue_depth\":" << p.span.queue_depth
       << ",\"flags\":" << static_cast<unsigned>(p.span.flags)
       << ",\"cause\":" << static_cast<unsigned>(p.span.cause) << "}\n";
  }
}

void write_spans_chrome(const SpanMerge& merge, std::ostream& os) {
  const std::int64_t base =
      merge.placed.empty() ? 0 : merge.placed.front().wall_start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < merge.labels.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << i + 1
       << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(merge.labels[i])
       << "\"}}";
  }
  for (const PlacedSpan& p : merge.placed) {
    const double ts = static_cast<double>(p.wall_start_ns - base) / 1000.0;
    const double dur =
        static_cast<double>(p.wall_end_ns - p.wall_start_ns) / 1000.0;
    os << ",{\"name\":\"" << json_escape(p.span.name)
       << "\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":" << ts
       << ",\"dur\":" << dur << ",\"pid\":" << p.source + 1
       << ",\"tid\":" << p.span.tid << ",\"args\":{\"trace_id\":\""
       << p.span.trace_id << "\",\"span_id\":\"" << p.span.span_id
       << "\",\"parent\":\"" << p.span.parent_span_id
       << "\",\"shard\":" << p.span.shard
       << ",\"queue_depth\":" << p.span.queue_depth
       << ",\"cause\":" << static_cast<unsigned>(p.span.cause) << "}}";
  }
  os << "]}\n";
}

void print_span_tree(const SpanMerge& merge, const SpanTree& tree,
                     std::uint64_t trace_id) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::set<std::uint64_t> present;
  for (const std::size_t i : tree.spans) {
    present.insert(merge.placed[i].span.span_id);
  }
  std::vector<std::size_t> roots;
  for (const std::size_t i : tree.spans) {
    const rlb::obs::Span& s = merge.placed[i].span;
    if (s.parent_span_id != 0 && present.count(s.parent_span_id)) {
      children[s.parent_span_id].push_back(i);
    } else {
      roots.push_back(i);  // true root, or parent lost to sampling/drop
    }
  }
  std::cout << "trace " << std::hex << trace_id << std::dec << " ("
            << tree.spans.size() << " spans, " << tree.hops << " hops"
            << (tree.sampled ? ", sampled" : "")
            << (tree.failed ? ", failed" : "") << ")\n";
  struct Frame {
    std::size_t index;
    unsigned depth;
  };
  std::vector<Frame> stack;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    stack.push_back({*it, 1});
  }
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const PlacedSpan& p = merge.placed[frame.index];
    std::cout << std::string(frame.depth * 2, ' ') << p.span.name << " "
              << (p.wall_end_ns - p.wall_start_ns) / 1000 << "us ["
              << merge.labels[p.source];
    if (p.span.shard != 0 || std::string(p.span.name) == "engine.request") {
      std::cout << " shard=" << p.span.shard;
    }
    std::cout << "]";
    if (p.span.queue_depth != 0) std::cout << " depth=" << p.span.queue_depth;
    if (p.span.cause != 0) {
      std::cout << " cause="
                << rlb::net::to_string(
                       static_cast<rlb::net::Status>(p.span.cause));
    }
    std::cout << "\n";
    const auto kids = children.find(p.span.span_id);
    if (kids != children.end()) {
      for (auto it = kids->second.rbegin(); it != kids->second.rend(); ++it) {
        stack.push_back({*it, frame.depth + 1});
      }
    }
  }
}

struct SpansOptions {
  std::vector<std::string> span_files;
  std::string out_path;
  std::string chrome_path;
  std::uint64_t print_trees = 3;
};

/// The --spans entry point: read, align, merge, render.
int run_spans(const std::vector<rlb::cluster::BackendEndpoint>& endpoints,
              const SpansOptions& options) {
  SpanMerge merge;
  std::size_t sources_ok = 0;
  for (const rlb::cluster::BackendEndpoint& endpoint : endpoints) {
    std::uint64_t cursor = 0;
    std::string label = "(no spans)";
    std::size_t spans = 0;
    std::uint64_t dropped = 0;
    try {
      read_ring(endpoint, rlb::net::RingId::kSpans, cursor,
                [&](rlb::net::EventsSnapshot& snap, std::int64_t offset) {
                  label = node_label(snap);
                  spans += snap.spans.size();
                  dropped += snap.dropped;
                  merge.add(label, snap.spans, offset);
                });
    } catch (const std::exception& e) {
      std::cerr << "rlb_stat: " << endpoint_name(endpoint) << ": " << e.what()
                << "\n";
      continue;
    }
    ++sources_ok;
    std::cout << "rlb_stat: " << endpoint_name(endpoint) << " -> " << label
              << " spans=" << spans << " dropped=" << dropped << "\n";
  }
  for (const std::string& path : options.span_files) {
    std::ifstream is(path);
    if (!is) {
      std::cerr << "rlb_stat: " << path << ": cannot open\n";
      continue;
    }
    ++sources_ok;
    std::uint64_t anchor_steady = 0;
    std::uint64_t anchor_wall = 0;
    const std::vector<rlb::obs::Span> spans =
        rlb::obs::parse_spans_jsonl(is, anchor_steady, anchor_wall);
    merge.add("client", spans,
              static_cast<std::int64_t>(anchor_wall) -
                  static_cast<std::int64_t>(anchor_steady));
    std::cout << "rlb_stat: " << path << " -> client spans=" << spans.size();
    if (anchor_wall == 0) {
      std::cout << " (no clock anchor: timestamps stay process-relative)";
    }
    std::cout << "\n";
  }
  if (sources_ok == 0) {
    std::cerr << "rlb_stat: every span source failed\n";
    return 1;
  }

  std::sort(merge.placed.begin(), merge.placed.end(),
            [](const PlacedSpan& a, const PlacedSpan& b) {
              return a.wall_start_ns < b.wall_start_ns;
            });
  std::map<std::uint64_t, SpanTree> trees;
  for (std::size_t i = 0; i < merge.placed.size(); ++i) {
    const rlb::obs::Span& span = merge.placed[i].span;
    SpanTree& tree = trees[span.trace_id];
    tree.spans.push_back(i);
    tree.sources.insert(merge.placed[i].source);
    if (std::string(span.name) == "router.hop") ++tree.hops;
    if (span.flags & rlb::obs::kSpanSampled) tree.sampled = true;
    if (span.cause != 0) tree.failed = true;
  }
  std::size_t cross_process = 0;
  std::size_t retried = 0;
  std::size_t failed = 0;
  for (const auto& [id, tree] : trees) {
    if (tree.sources.size() >= 2) ++cross_process;
    if (tree.hops >= 2) ++retried;
    if (tree.failed) ++failed;
  }

  const auto write_file = [&](const std::string& path, auto&& writer) {
    if (path.empty()) return true;
    std::ofstream os(path);
    if (!os) {
      std::cerr << "rlb_stat: cannot write " << path << "\n";
      return false;
    }
    writer(merge, os);
    return true;
  };
  if (!write_file(options.out_path, write_spans_jsonl) ||
      !write_file(options.chrome_path, write_spans_chrome)) {
    return 1;
  }

  // Retried traces make the most interesting trees; show them first.
  std::vector<std::pair<std::uint64_t, const SpanTree*>> order;
  order.reserve(trees.size());
  for (const auto& [id, tree] : trees) order.emplace_back(id, &tree);
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second->hops != b.second->hops) {
                       return a.second->hops > b.second->hops;
                     }
                     return a.second->spans.size() > b.second->spans.size();
                   });
  for (std::size_t i = 0; i < order.size() && i < options.print_trees; ++i) {
    print_span_tree(merge, *order[i].second, order[i].first);
  }

  std::cout << "rlb_stat: merged traces=" << trees.size()
            << " spans=" << merge.placed.size()
            << " processes=" << merge.labels.size()
            << " cross_process=" << cross_process << " retried=" << retried
            << " failed=" << failed << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rlb;

  std::string host = "127.0.0.1";
  std::uint16_t port = 4117;
  bool watch = false;
  bool prom = false;
  bool json = false;
  bool events = false;
  bool follow = false;
  bool spans = false;
  SpansOptions spans_options;
  std::uint64_t interval_s = 1;
  std::vector<cluster::BackendEndpoint> cluster_endpoints;

  harness::Flags flags(
      "Poll a running rlbd or rlb_router: its STATS snapshot by default, the\n"
      "merged control-plane journal with --events, the merged request\n"
      "span trees with --spans.");
  flags.text("--host", "addr", "daemon address", host)
      .num("--port", "p", "daemon port", port)
      .custom("--watch", "s", "refresh every s seconds (default 1)", "",
              [&](const std::string& value) {
                watch = true;
                if (value.empty()) return std::string();
                const std::string why =
                    harness::parse_number(value, 0, UINT64_MAX, interval_s);
                if (interval_s == 0) interval_s = 1;
                return why;
              })
      .optional_value()
      .toggle("--prom", "Prometheus text exposition", prom)
      .toggle("--json", "one JSON object per snapshot", json)
      .custom("--cluster", "host:port,...",
              "fan out: scrape every listed endpoint (router +\n"
              "backends) and merge into one per-node table (or a\n"
              "JSON document)",
              "",
              [&](const std::string& value) {
                try {
                  cluster_endpoints = cluster::parse_backend_list(value);
                } catch (const std::exception& e) {
                  return std::string(e.what());
                }
                return std::string();
              })
      .toggle("--events",
              "read the control-plane journal (EVENTS) from the\n"
              "target -- or every --cluster endpoint -- into one\n"
              "clock-aligned merged timeline (--json for machine output)",
              events)
      .toggle("--follow",
              "with --events: keep tailing new events every --watch\n"
              "interval (default 1s)",
              follow)
      .toggle("--spans",
              "read the span recorders of the target -- or every\n"
              "--cluster endpoint -- and merge them into cross-process\n"
              "request trees",
              spans)
      .list("--span-file", "path",
            "with --spans: merge a span JSONL file too\n"
            "(rlb_loadgen --span-file)",
            spans_options.span_files)
      .text("--out", "path", "with --spans: merged spans as JSONL",
            spans_options.out_path)
      .text("--chrome", "path",
            "with --spans: a Chrome trace (chrome://tracing, Perfetto)",
            spans_options.chrome_path)
      .num("--print", "n",
           "with --spans: print n span trees, retried first\n"
           "(0 = summary only)",
           spans_options.print_trees);
  flags.parse(argc, argv);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (events && spans) {
    std::cerr << "rlb_stat: --events and --spans are exclusive\n";
    return 2;
  }
  if (events || spans) {
    std::vector<cluster::BackendEndpoint> endpoints = cluster_endpoints;
    if (endpoints.empty()) {
      cluster::BackendEndpoint endpoint;
      endpoint.host = host;
      endpoint.port = port;
      endpoints.push_back(std::move(endpoint));
    }
    if (spans) return run_spans(endpoints, spans_options);
    return run_events(endpoints, json, follow, interval_s);
  }
  if (follow) {
    std::cerr << "rlb_stat: --follow requires --events\n";
    return 2;
  }

  if (!cluster_endpoints.empty()) {
    if (prom) {
      std::cerr << "rlb_stat: --cluster does not support --prom (scrape each "
                   "endpoint directly)\n";
      return 2;
    }
    do {
      const std::vector<ClusterRow> rows = scrape_cluster(cluster_endpoints);
      if (json) {
        print_cluster_json(rows);
      } else {
        if (watch) std::cout << "\033[H\033[2J";
        print_cluster_pretty(rows);
      }
      std::cout.flush();
      if (watch) {
        for (std::uint64_t s = 0; s < interval_s * 10 && !g_stop_requested;
             ++s) {
          ::usleep(100 * 1000);
        }
      }
    } while (watch && !g_stop_requested);
    return 0;
  }

  net::Client client;
  try {
    client.connect(host, port);
  } catch (const std::exception& e) {
    std::cerr << "rlb_stat: " << e.what() << "\n";
    return 1;
  }

  // --watch keeps the previous scrape's totals so each refresh can show
  // per-interval deltas (rps / reject rate) next to the lifetime counters.
  bool have_prev = false;
  net::ShardStats prev_totals;
  std::uint64_t prev_wall_ns = 0;
  do {
    net::StatsSnapshot snapshot;
    try {
      client.send_stats_request();
      client.flush();
      if (!client.read_stats_response(snapshot)) {
        std::cerr << "rlb_stat: daemon closed the connection\n";
        return 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "rlb_stat: " << e.what() << "\n";
      return 1;
    }
    if (prom) {
      std::cout << net::render_prometheus(snapshot);
    } else if (json) {
      std::cout << net::render_json(snapshot) << "\n";
    } else {
      if (watch) std::cout << "\033[H\033[2J";  // clear screen per refresh
      const net::ShardStats totals = snapshot.totals();
      const std::uint64_t now_wall = obs::wall_now_ns();
      WatchDelta delta;
      bool have_delta = false;
      if (watch && have_prev && now_wall > prev_wall_ns) {
        delta.seconds =
            static_cast<double>(now_wall - prev_wall_ns) / 1e9;
        delta.submitted = totals.submitted - prev_totals.submitted;
        delta.completed = totals.completed - prev_totals.completed;
        delta.rejected =
            totals.rejected_total() - prev_totals.rejected_total();
        have_delta = true;
      }
      prev_totals = totals;
      prev_wall_ns = now_wall;
      have_prev = true;
      print_pretty(snapshot, have_delta ? &delta : nullptr);
    }
    std::cout.flush();
    if (watch) {
      for (std::uint64_t s = 0; s < interval_s * 10 && !g_stop_requested;
           ++s) {
        ::usleep(100 * 1000);
      }
    }
  } while (watch && !g_stop_requested);

  return 0;
}
