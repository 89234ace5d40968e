// Selectable table output for experiment binaries.
//
// Every bench binary emits its tables through emit(); the process-wide
// format defaults to aligned text and can be switched per run:
//   ./bench_xyz --format csv        (also: text | markdown)
//   RLB_TABLE_FORMAT=csv ./bench_xyz
// so results feed straight into plotting scripts without a parser.
//
// The same init also wires up the observability layer (src/obs/):
//   ./bench_xyz --trace /tmp/t.json   (or RLB_TRACE=/tmp/t.json)
//       enable tracing and write the event trace at exit — Chrome
//       trace-event JSON by default, JSON Lines when the path ends .jsonl.
//   ./bench_xyz --trace-detail        (or RLB_TRACE_DETAIL=1)
//       also trace per-request lifecycle events (very chatty).
//   ./bench_xyz --probes              (or RLB_PROBES=1)
//       enable probe recording and print the merged probe table at exit.
#pragma once

#include <ostream>

#include "harness/flags.hpp"
#include "report/table.hpp"

namespace rlb::harness {

enum class TableFormat { kText, kCsv, kMarkdown };

/// Declare the output and observability flags every table-printing binary
/// shares — --format, --trace, --trace-detail, --probes and, unless the
/// binary gives --json a meaning of its own, --json — with their
/// RLB_TABLE_FORMAT, RLB_TRACE, RLB_TRACE_DETAIL, RLB_PROBES and RLB_JSON
/// environment fallbacks.  An unknown format keeps the default with a
/// warning; an unwritable trace path is rejected.
void add_output_flags(Flags& flags, bool json = true);

/// Parse argv against a table of only the output flags (for binaries with
/// no flags of their own) and configure the process-wide output and
/// observability state.
void init_output(int argc, char** argv);

// -- Machine-readable results (--json <path>) ----------------------------
//
// When a JSON path is configured, every table passed to emit() is also
// captured, and at process exit (or on write_json()) the accumulated run —
// experiment id, free-form config/metric values, and all tables — is
// written as one JSON document:
//   {"experiment": ..., "values": {...},
//    "tables": [{"headers": [...], "rows": [[...], ...]}, ...]}
// Cells that parse as numbers are emitted as JSON numbers, so BENCH_*.json
// perf trajectories can be diffed across PRs without a table parser.

/// Route captured results to `path` ("" disables).  Registers the at-exit
/// writer; also called by init_output for --json/RLB_JSON.
void set_json_file(const std::string& path);
bool json_enabled();

/// Set the "experiment" field (print_banner calls this with its id).
void set_json_experiment(const std::string& id);

/// Record a scalar config/metric value into the "values" object.
void json_value(const std::string& key, const std::string& value);
void json_value(const std::string& key, double value);
void json_value(const std::string& key, std::uint64_t value);

/// Write the accumulated document now (also happens at exit).  No-op when
/// disabled.
void write_json();

/// Explicitly set the process-wide format (tests).
void set_table_format(TableFormat format);
TableFormat table_format();

/// Print `table` to stdout in the configured format.
void emit(const report::Table& table);

/// Print `table` to `os` in the configured format.
void emit(const report::Table& table, std::ostream& os);

/// Print the merged obs probe table (counters/gauges/histograms recorded
/// so far) through emit().  No-op when nothing has been recorded.
void emit_probes();
void emit_probes(std::ostream& os);

}  // namespace rlb::harness
