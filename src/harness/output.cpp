#include "harness/output.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace rlb::harness {

namespace {

TableFormat g_format = TableFormat::kText;

// -- JSON capture state --------------------------------------------------

std::string g_json_path;
std::string g_json_experiment;
std::vector<std::pair<std::string, std::string>> g_json_values;  // pre-encoded
std::vector<report::Table> g_json_tables;
bool g_json_written = false;

/// JSON string escaping (control chars, quotes, backslash).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Encode a table cell: numeric cells become JSON numbers, the rest quoted
/// strings (so downstream tooling gets real numbers without a parser).
std::string json_cell(const std::string& cell) {
  // Restrict to the JSON number alphabet first: strtod also accepts hex,
  // "inf", and leading-dot forms that are not valid JSON literals.
  const bool shape_ok =
      !cell.empty() && (std::isdigit(static_cast<unsigned char>(cell[0])) ||
                        (cell[0] == '-' && cell.size() > 1)) &&
      cell.find_first_not_of("0123456789+-.eE") == std::string::npos &&
      cell.find('.') != 0;
  if (shape_ok) {
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(cell.c_str(), &end);
    if (errno == 0 && end == cell.c_str() + cell.size() &&
        std::isfinite(value)) {
      return cell;  // a valid JSON number literal as-is
    }
  }
  return "\"" + json_escape(cell) + "\"";
}

void write_json_at_exit() { write_json(); }

void register_json_writer() {
  static bool atexit_registered = false;
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit(&write_json_at_exit);
  }
}

bool parse_format(const std::string& value, TableFormat& out) {
  if (value == "text") {
    out = TableFormat::kText;
  } else if (value == "csv") {
    out = TableFormat::kCsv;
  } else if (value == "markdown" || value == "md") {
    out = TableFormat::kMarkdown;
  } else {
    return false;
  }
  return true;
}

void emit_probes_at_exit() { emit_probes(); }

void enable_probes() {
  static bool atexit_registered = false;
  obs::set_enabled(true);
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit(&emit_probes_at_exit);
  }
}

// The trace is only written at exit, so an unwritable path would otherwise
// fail silently after the whole run; probe it up front and fail loudly —
// a user who asked for a trace wants the run to stop rather than silently
// produce nothing (CI would green-light an empty artifact).
std::string set_trace_file_checked(const std::string& path) {
  if (!std::ofstream(path, std::ios::app)) {
    return "cannot open trace file '" + path + "'";
  }
  obs::set_trace_file(path);
  return "";
}

}  // namespace

void add_output_flags(Flags& flags, bool json) {
  flags
      .custom("--format", "text|csv|markdown", "table output format", "text",
              [](const std::string& value) {
                if (!parse_format(value, g_format)) {
                  std::cerr << "rlb: ignoring unknown table format '" << value
                            << "' (text|csv|markdown)\n";
                }
                return std::string();
              })
      .env("RLB_TABLE_FORMAT")
      .custom("--trace", "path",
              "record an event trace, written at exit\n"
              "(Chrome trace JSON; JSON Lines for a .jsonl path)",
              "", &set_trace_file_checked)
      .env("RLB_TRACE")
      .action("--trace-detail", "also trace per-request lifecycle events",
              [] { obs::set_detail(true); })
      .env("RLB_TRACE_DETAIL")
      .action("--probes", "print the merged probe table at exit",
              &enable_probes)
      .env("RLB_PROBES");
  if (json) {
    flags
        .custom("--json", "path", "also write the run's tables as JSON", "",
                [](const std::string& path) {
                  set_json_file(path);
                  return std::string();
                })
        .env("RLB_JSON");
  }
}

void init_output(int argc, char** argv) {
  Flags flags;
  add_output_flags(flags);
  flags.parse(argc, argv);
}

void set_table_format(TableFormat format) { g_format = format; }

TableFormat table_format() { return g_format; }

void set_json_file(const std::string& path) {
  if (!path.empty()) {
    // Probe writability up front, like the trace file: the document is
    // only written at exit and a bad path would fail after the whole run.
    std::ofstream probe(path, std::ios::app);
    if (!probe) {
      std::cerr << "rlb: cannot open json file '" << path
                << "' — json output disabled\n";
      return;
    }
    register_json_writer();
  }
  g_json_path = path;
  g_json_written = false;
}

bool json_enabled() { return !g_json_path.empty(); }

void set_json_experiment(const std::string& id) { g_json_experiment = id; }

void json_value(const std::string& key, const std::string& value) {
  if (!json_enabled()) return;
  g_json_values.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void json_value(const std::string& key, double value) {
  if (!json_enabled()) return;
  std::ostringstream os;
  os << value;
  g_json_values.emplace_back(key, json_cell(os.str()));
}

void json_value(const std::string& key, std::uint64_t value) {
  if (!json_enabled()) return;
  g_json_values.emplace_back(key, std::to_string(value));
}

void write_json() {
  if (!json_enabled() || g_json_written) return;
  g_json_written = true;
  std::ofstream os(g_json_path, std::ios::trunc);
  if (!os) {
    std::cerr << "rlb: cannot write json file '" << g_json_path << "'\n";
    return;
  }
  os << "{\n  \"experiment\": \"" << json_escape(g_json_experiment) << "\",\n";
  os << "  \"values\": {";
  for (std::size_t i = 0; i < g_json_values.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << json_escape(g_json_values[i].first)
       << "\": " << g_json_values[i].second;
  }
  os << "},\n  \"tables\": [\n";
  for (std::size_t t = 0; t < g_json_tables.size(); ++t) {
    const report::Table& table = g_json_tables[t];
    os << "    {\"headers\": [";
    for (std::size_t c = 0; c < table.headers().size(); ++c) {
      if (c) os << ", ";
      os << "\"" << json_escape(table.headers()[c]) << "\"";
    }
    os << "], \"rows\": [";
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
      if (r) os << ", ";
      os << "[";
      const auto& row = table.rows()[r];
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c) os << ", ";
        os << json_cell(row[c]);
      }
      os << "]";
    }
    os << "]}" << (t + 1 < g_json_tables.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

void emit(const report::Table& table, std::ostream& os) {
  if (json_enabled()) g_json_tables.push_back(table);
  switch (g_format) {
    case TableFormat::kText:
      table.print(os);
      break;
    case TableFormat::kCsv:
      table.print_csv(os);
      break;
    case TableFormat::kMarkdown:
      table.print_markdown(os);
      break;
  }
}

void emit(const report::Table& table) { emit(table, std::cout); }

void emit_probes(std::ostream& os) {
  const report::Table table = obs::ProbeRegistry::instance().to_table();
  if (table.row_count() == 0) return;
  os << "\n== probes ==\n";
  emit(table, os);
}

void emit_probes() { emit_probes(std::cout); }

}  // namespace rlb::harness
