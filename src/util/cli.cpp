#include "util/cli.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "util/check.h"

namespace ctesim {

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Cli& Cli::add(const std::string& name, Kind kind, void* target,
              const std::string& help, std::string default_repr) {
  CTESIM_EXPECTS(!name.empty());
  CTESIM_EXPECTS(target != nullptr);
  CTESIM_EXPECTS(opts_.find(name) == opts_.end());
  opts_[name] = Opt{kind, target, help, std::move(default_repr)};
  order_.push_back(name);
  return *this;
}

Cli& Cli::flag(const std::string& name, bool* value, const std::string& help) {
  return add(name, Kind::kBool, value, help, *value ? "true" : "false");
}

Cli& Cli::option(const std::string& name, std::int64_t* value,
                 const std::string& help) {
  return add(name, Kind::kInt, value, help, std::to_string(*value));
}

Cli& Cli::option(const std::string& name, double* value,
                 const std::string& help) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", *value);
  return add(name, Kind::kDouble, value, help, buf);
}

Cli& Cli::option(const std::string& name, std::string* value,
                 const std::string& help) {
  return add(name, Kind::kString, value, help, *value);
}

bool Cli::assign(const std::string& name, const std::string& value) {
  auto it = opts_.find(name);
  if (it == opts_.end()) {
    std::fprintf(stderr, "%s: unknown option --%s\n", program_.c_str(),
                 name.c_str());
    return false;
  }
  Opt& opt = it->second;
  char* end = nullptr;
  switch (opt.kind) {
    case Kind::kBool:
      if (value == "" || value == "true" || value == "1") {
        *static_cast<bool*>(opt.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(opt.target) = false;
      } else {
        std::fprintf(stderr, "%s: bad bool for --%s: '%s'\n", program_.c_str(),
                     name.c_str(), value.c_str());
        return false;
      }
      return true;
    case Kind::kInt: {
      const long long v = std::strtoll(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        std::fprintf(stderr, "%s: bad integer for --%s: '%s'\n",
                     program_.c_str(), name.c_str(), value.c_str());
        return false;
      }
      *static_cast<std::int64_t*>(opt.target) = v;
      return true;
    }
    case Kind::kDouble: {
      const double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') {
        std::fprintf(stderr, "%s: bad number for --%s: '%s'\n",
                     program_.c_str(), name.c_str(), value.c_str());
        return false;
      }
      *static_cast<double*>(opt.target) = v;
      return true;
    }
    case Kind::kString:
      *static_cast<std::string*>(opt.target) = value;
      return true;
  }
  return false;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      help_ = true;
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n", program_.c_str(),
                   arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else {
      const auto it = opts_.find(name);
      if (it != opts_.end() && it->second.kind != Kind::kBool) {
        // A following flag is not a value: `--csv --help` must not write
        // a file named "--help". `--csv=--help` still can.
        if (i + 1 == argc || std::string_view(argv[i + 1]).starts_with("--")) {
          std::fprintf(stderr, "%s: option --%s needs a value\n",
                       program_.c_str(), name.c_str());
          return false;
        }
        value = argv[++i];
      }
    }
    if (!assign(name, value)) return false;
  }
  return true;
}

bool Cli::writable(const char* option, const std::string& path) const {
  if (path.empty() || std::ofstream(path)) return true;
  std::fprintf(stderr, "%s: cannot write --%s file '%s'\n", program_.c_str(),
               option, path.c_str());
  return false;
}

void Cli::print_help() const {
  std::printf("%s — %s\n\nOptions:\n", program_.c_str(), description_.c_str());
  for (const auto& name : order_) {
    const Opt& opt = opts_.at(name);
    std::printf("  --%-24s %s (default: %s)\n", name.c_str(), opt.help.c_str(),
                opt.default_repr.c_str());
  }
}

}  // namespace ctesim
