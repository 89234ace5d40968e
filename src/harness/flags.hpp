// One declarative command-line table per binary.
//
// A binary declares each flag once — name, value placeholder, help line,
// numeric bounds, an optional RLB_* environment fallback, and the variable
// (or small custom parse) it writes — and parse() does the rest:
//   - the environment first, then the command line overrides it;
//   - a missing value, a non-numeric or out-of-range value, or an unknown
//     flag prints one line `<program>: <flag>: <reason>` and exits 2;
//   - -h/--help prints the help generated from the table and exits 0.
//
//   std::uint64_t requests = 100000;
//   harness::Flags flags("E23 cluster router hop overhead");
//   flags.num("--requests", "n", "total requests per topology", requests, 1);
//   harness::add_output_flags(flags);  // harness/output.hpp
//   flags.parse(argc, argv);
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace rlb::harness {

/// Parse `text` as an unsigned integer in [lo, hi] into `out`.  Returns ""
/// on success, otherwise the reason (and leaves `out` alone).
std::string parse_number(const std::string& text, std::uint64_t lo,
                         std::uint64_t hi, std::uint64_t& out);

/// Same for a finite real number in [lo, hi].
std::string parse_number(const std::string& text, double lo, double hi,
                         double& out);

class Flags {
 public:
  /// A custom value parse: "" on success, otherwise why the value is bad.
  using Parser = std::function<std::string(const std::string& value)>;

  enum class Outcome { kOk, kHelp, kError };

  /// `summary` is printed under the usage line of --help.
  explicit Flags(std::string summary = "");

  /// An unsigned integer or real flag in [lo, hi] (a real flag's default
  /// range is [0, max] too).  The target's value at declaration is the
  /// default --help shows.
  template <typename T>
  Flags& num(std::string name, std::string placeholder, std::string help,
             T& target, std::type_identity_t<T> lo = 0,
             std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
    static_assert(std::is_floating_point_v<T> ||
                      (std::is_unsigned_v<T> && !std::is_same_v<T, bool>),
                  "num() takes unsigned integer or floating-point targets");
    std::ostringstream shown;
    shown << +target;
    return add(std::move(name), std::move(placeholder), std::move(help),
               shown.str(), Arity::kOne, /*typed=*/true,
               [&target, lo, hi](const std::string& text) {
                 using Parsed = std::conditional_t<std::is_floating_point_v<T>,
                                                   double, std::uint64_t>;
                 Parsed value{};
                 std::string why = parse_number(text, static_cast<Parsed>(lo),
                                                static_cast<Parsed>(hi), value);
                 if (why.empty()) target = static_cast<T>(value);
                 return why;
               });
  }

  /// A string flag; a non-empty initial value is the shown default.
  Flags& text(std::string name, std::string placeholder, std::string help,
              std::string& target);

  /// A repeatable string flag: every occurrence appends to `target`.
  Flags& list(std::string name, std::string placeholder, std::string help,
              std::vector<std::string>& target);

  /// A switch that sets `target` to true.
  Flags& toggle(std::string name, std::string help, bool& target);

  /// A switch that runs `run`.
  Flags& action(std::string name, std::string help, std::function<void()> run);

  /// A flag whose value goes through `parse`.  Custom parses run after every
  /// typed flag is stored, so a bad typed value fails before their effects.
  Flags& custom(std::string name, std::string placeholder, std::string help,
                std::string shown_default, Parser parse);

  /// Environment fallback for the flag declared last: a switch fires when
  /// the variable is set and not "", "0", "false" or "off"; a value flag
  /// parses a non-empty variable like its command-line value.
  Flags& env(std::string variable);

  /// Make the value of the flag declared last optional: it is taken only
  /// when the next argument does not start with '-', and the parse sees ""
  /// otherwise.
  Flags& optional_value();

  /// Hand every argument that starts with `prefix` (e.g. "--benchmark_")
  /// to `out` unparsed, for a library that reads its own flags.
  Flags& pass_through(std::string prefix, std::string help,
                      std::vector<std::string>& out);

  /// Parse argv; on --help print the help to stdout and exit 0, on a
  /// rejection print the one-line reason to stderr and exit 2.
  void parse(int argc, char** argv);

  /// The same without exiting: `message` receives the help text or the
  /// rejection line.  argv[0]'s basename names the program.
  Outcome try_parse(int argc, const char* const* argv, std::string& message);

 private:
  enum class Arity { kNone, kOne, kOptional };

  struct Flag {
    std::string name;
    std::string placeholder;
    std::string help;
    std::string shown_default;
    std::string env;
    Arity arity = Arity::kOne;
    bool typed = false;
    Parser apply;
  };

  Flags& add(std::string name, std::string placeholder, std::string help,
             std::string shown_default, Arity arity, bool typed, Parser apply);
  std::string help(const std::string& program) const;

  std::string summary_;
  std::vector<Flag> flags_;
  std::string pass_prefix_;
  std::string pass_help_;
  std::vector<std::string>* pass_out_ = nullptr;
};

}  // namespace rlb::harness
