// The driver every figure, table, ablation and study main goes through: the
// command line (--csv, --trace and the main's own options), the banner, the
// CSV export and the paper's two-machine log-log scalability chart. Each main
// keeps its own model calls, table layout and headline text.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "report/plot.h"
#include "util/cli.h"
#include "util/csv.h"

namespace ctesim::bench {

class Harness {
 public:
  Harness(std::string program, std::string description)
      : cli_(std::move(program), std::move(description)) {}

  /// The main's own options; register them before parse().
  Cli& cli() { return cli_; }

  /// Registers --trace (a Chrome trace written to `*path` after the run),
  /// whose path parse() checks like --csv's.
  Cli& trace_option(std::string* path, const char* help) {
    trace_path_ = path;
    return cli_.option("trace", path, help);
  }

  /// Adds --csv and parses argv. Returns false when main should return
  /// exit_status(): 0 after --help, 2 after a command-line error, 1 when
  /// the --csv or --trace file cannot be written (found here, before any
  /// work).
  bool parse(int argc, char** argv) {
    cli_.option("csv", &csv_path_, "write the series as CSV to this path");
    if (!cli_.parse(argc, argv)) return false;
    unwritable_ = !cli_.writable("csv", csv_path_) ||
                  (trace_path_ && !cli_.writable("trace", *trace_path_));
    return !unwritable_;
  }
  int exit_status() const { return unwritable_ ? 1 : cli_.exit_status(); }

  static void banner(const char* id, const char* title) {
    std::printf("=== %s — %s ===\n", id, title);
    std::printf(
        "(ctesim reproduction; machines are models, see DESIGN.md)\n\n");
  }

  /// Opens the --csv file with this header row. Without --csv, this and
  /// every csv_row() do nothing.
  void open_csv(const std::vector<std::string>& header) {
    if (!csv_path_.empty()) {
      csv_ = std::make_unique<CsvWriter>(csv_path_, header);
    }
  }
  void csv_row(const std::vector<std::string>& fields) {
    if (csv_) csv_->row(fields);
  }
  void csv_row(const std::vector<double>& fields) {
    if (csv_) csv_->row(fields);
  }

 private:
  Cli cli_;
  std::string csv_path_;
  std::string* trace_path_ = nullptr;
  bool unwritable_ = false;
  std::unique_ptr<CsvWriter> csv_;
};

/// The paper's scalability plot: CTE-Arm against MareNostrum 4 on log-log
/// axes. Points are added as the sweep runs; print() writes a blank line
/// and then the chart.
class ScalingChart {
 public:
  ScalingChart(std::string title, int height, std::string x_label,
               std::string y_label)
      : chart_(std::move(title), 72, height) {
    chart_.set_log_x(true);
    chart_.set_log_y(true);
    chart_.set_axis_labels(std::move(x_label), std::move(y_label));
  }

  void cte(double x, double y) {
    cx_.push_back(x);
    cy_.push_back(y);
  }
  void mn4(double x, double y) {
    mx_.push_back(x);
    my_.push_back(y);
  }

  void print() const {
    report::LineChart chart = chart_;
    chart.series("CTE-Arm", cx_, cy_);
    chart.series("MareNostrum 4", mx_, my_);
    std::printf("\n");
    chart.print(std::cout);
  }

 private:
  report::LineChart chart_;
  std::vector<double> cx_, cy_, mx_, my_;
};

}  // namespace ctesim::bench
