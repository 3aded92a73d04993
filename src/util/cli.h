// Tiny command-line flag parser for the bench harnesses and examples.
//
// Supports --name=value and --name value forms, plus bare --flag for bools.
// Unknown flags and a non-bool option without a value are errors (catches
// typos in sweep scripts); in the `--name value` form a value may not start
// with "--", so a flag is never taken for one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ctesim {

class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Register options; `help` is shown by print_help(). Returns *this so
  /// registrations chain.
  Cli& flag(const std::string& name, bool* value, const std::string& help);
  Cli& option(const std::string& name, std::int64_t* value,
              const std::string& help);
  Cli& option(const std::string& name, double* value, const std::string& help);
  Cli& option(const std::string& name, std::string* value,
              const std::string& help);

  /// Parse argv. Returns false (after printing the help or an error
  /// message) when the program should stop and exit with exit_status().
  bool parse(int argc, const char* const* argv);

  /// Exit status after parse() returned false: 0 after --help, 2 after a
  /// command-line error.
  int exit_status() const { return help_ ? 0 : 2; }

  /// True when `path` is empty or can be opened for writing (which
  /// creates or truncates it). Otherwise prints "<program>: cannot write
  /// --<option> file '<path>'" and returns false, so a main can exit 1
  /// before a run whose output it could not save.
  bool writable(const char* option, const std::string& path) const;

  void print_help() const;
  const std::string& program() const { return program_; }

 private:
  enum class Kind { kBool, kInt, kDouble, kString };
  struct Opt {
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
  };

  Cli& add(const std::string& name, Kind kind, void* target,
           const std::string& help, std::string default_repr);
  bool assign(const std::string& name, const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Opt> opts_;
  std::vector<std::string> order_;
  bool help_ = false;
};

}  // namespace ctesim
