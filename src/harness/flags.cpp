#include "harness/flags.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <utility>

namespace rlb::harness {

namespace {

template <typename T>
std::string bound_reason(const std::string& text, bool below, T bound) {
  std::ostringstream os;
  os << "'" << text << "' is "
     << (below ? "below the minimum " : "above the maximum ") << bound;
  return os.str();
}

bool env_truthy(const std::string& value) {
  return !value.empty() && value != "0" && value != "false" && value != "off";
}

}  // namespace

std::string parse_number(const std::string& text, std::uint64_t lo,
                         std::uint64_t hi, std::uint64_t& out) {
  // strtoull alone would accept leading blanks, a sign ("-1" wraps to
  // 2^64-1) and trailing junk.
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return "'" + text + "' is not a non-negative integer";
  }
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), nullptr, 10);
  if (errno == ERANGE || value > hi) return bound_reason(text, false, hi);
  if (value < lo) return bound_reason(text, true, lo);
  out = value;
  return "";
}

std::string parse_number(const std::string& text, double lo, double hi,
                         double& out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
      end != text.c_str() + text.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return "'" + text + "' is not a number";
  }
  if (value > hi) return bound_reason(text, false, hi);
  if (value < lo) return bound_reason(text, true, lo);
  out = value;
  return "";
}

Flags::Flags(std::string summary) : summary_(std::move(summary)) {}

Flags& Flags::add(std::string name, std::string placeholder, std::string help,
                  std::string shown_default, Arity arity, bool typed,
                  Parser apply) {
  if (name == "-h" || name == "--help") {
    throw std::logic_error("flag " + name + " is reserved");
  }
  for (const Flag& flag : flags_) {
    if (flag.name == name) {
      throw std::logic_error("flag " + name + " declared twice");
    }
  }
  Flag flag;
  flag.name = std::move(name);
  flag.placeholder = std::move(placeholder);
  flag.help = std::move(help);
  flag.shown_default = std::move(shown_default);
  flag.arity = arity;
  flag.typed = typed;
  flag.apply = std::move(apply);
  flags_.push_back(std::move(flag));
  return *this;
}

Flags& Flags::text(std::string name, std::string placeholder, std::string help,
                   std::string& target) {
  return add(std::move(name), std::move(placeholder), std::move(help), target,
             Arity::kOne, /*typed=*/true, [&target](const std::string& value) {
               target = value;
               return std::string();
             });
}

Flags& Flags::list(std::string name, std::string placeholder, std::string help,
                   std::vector<std::string>& target) {
  return add(std::move(name), std::move(placeholder),
             std::move(help) + " (repeatable)", "", Arity::kOne,
             /*typed=*/true, [&target](const std::string& value) {
               target.push_back(value);
               return std::string();
             });
}

Flags& Flags::toggle(std::string name, std::string help, bool& target) {
  return add(std::move(name), "", std::move(help), "", Arity::kNone,
             /*typed=*/true, [&target](const std::string&) {
               target = true;
               return std::string();
             });
}

Flags& Flags::action(std::string name, std::string help,
                     std::function<void()> run) {
  return add(std::move(name), "", std::move(help), "", Arity::kNone,
             /*typed=*/false,
             [run = std::move(run)](const std::string&) {
               run();
               return std::string();
             });
}

Flags& Flags::custom(std::string name, std::string placeholder,
                     std::string help, std::string shown_default,
                     Parser parse) {
  return add(std::move(name), std::move(placeholder), std::move(help),
             std::move(shown_default), Arity::kOne, /*typed=*/false,
             std::move(parse));
}

Flags& Flags::env(std::string variable) {
  flags_.back().env = std::move(variable);
  return *this;
}

Flags& Flags::optional_value() {
  flags_.back().arity = Arity::kOptional;
  return *this;
}

Flags& Flags::pass_through(std::string prefix, std::string help,
                           std::vector<std::string>& out) {
  pass_prefix_ = std::move(prefix);
  pass_help_ = std::move(help);
  pass_out_ = &out;
  return *this;
}

std::string Flags::help(const std::string& program) const {
  constexpr std::size_t kColumn = 27;
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  if (!summary_.empty()) os << summary_ << "\n";
  os << "\n";
  const auto row = [&os](std::string left, const std::string& text) {
    left = "  " + left;
    os << left;
    if (left.size() + 1 > kColumn) {
      os << "\n" << std::string(kColumn, ' ');
    } else {
      os << std::string(kColumn - left.size(), ' ');
    }
    for (const char c : text) {
      os << c;
      if (c == '\n') os << std::string(kColumn, ' ');
    }
    os << "\n";
  };
  for (const Flag& flag : flags_) {
    std::string left = flag.name;
    if (flag.arity == Arity::kOne) left += " <" + flag.placeholder + ">";
    if (flag.arity == Arity::kOptional) left += " [" + flag.placeholder + "]";
    std::string text = flag.help;
    if (!flag.shown_default.empty()) {
      text += " (default " + flag.shown_default + ")";
    }
    if (!flag.env.empty()) text += " [env " + flag.env + "]";
    row(left, text);
  }
  if (pass_out_ != nullptr) row(pass_prefix_ + "*", pass_help_);
  row("-h, --help", "print this help and exit");
  return os.str();
}

Flags::Outcome Flags::try_parse(int argc, const char* const* argv,
                                std::string& message) {
  std::string program = argc > 0 ? argv[0] : "rlb";
  program = program.substr(program.find_last_of('/') + 1);
  const auto reject = [&](const std::string& what, const std::string& why) {
    message = program + ": " + what + ": " + why;
    return Outcome::kError;
  };

  // Resolve every argument first, so an unknown flag or a missing value
  // fails before any flag takes effect.
  std::vector<std::pair<const Flag*, std::string>> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      message = help(program);
      return Outcome::kHelp;
    }
    if (pass_out_ != nullptr && arg.rfind(pass_prefix_, 0) == 0) {
      pass_out_->push_back(arg);
      continue;
    }
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name == arg) flag = &candidate;
    }
    if (flag == nullptr) return reject(arg, "unknown flag (see --help)");
    std::string value;
    if (flag->arity == Arity::kOne) {
      if (i + 1 >= argc) {
        return reject(arg, "missing value <" + flag->placeholder + ">");
      }
      value = argv[++i];
    } else if (flag->arity == Arity::kOptional && i + 1 < argc &&
               argv[i + 1][0] != '-') {
      value = argv[++i];
    }
    given.emplace_back(flag, std::move(value));
  }

  // Typed flags store into their variables before any custom parse runs;
  // within each flag the environment goes first and the command line
  // overrides it.
  for (const bool typed : {true, false}) {
    for (const Flag& flag : flags_) {
      if (flag.typed != typed) continue;
      if (const char* env =
              flag.env.empty() ? nullptr : std::getenv(flag.env.c_str())) {
        const std::string value = env;
        const bool use =
            flag.arity == Arity::kNone ? env_truthy(value) : !value.empty();
        const std::string why = use ? flag.apply(value) : "";
        if (!why.empty()) return reject(flag.env, why);
      }
      for (const auto& [target, value] : given) {
        if (target != &flag) continue;
        const std::string why = flag.apply(value);
        if (!why.empty()) return reject(flag.name, why);
      }
    }
  }
  return Outcome::kOk;
}

void Flags::parse(int argc, char** argv) {
  std::string message;
  switch (try_parse(argc, argv, message)) {
    case Outcome::kOk:
      return;
    case Outcome::kHelp:
      std::cout << message;
      std::exit(0);
    case Outcome::kError:
      std::cerr << message << "\n";
      std::exit(2);
  }
}

}  // namespace rlb::harness
