#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/hash.h"
#include "util/stats.h"

namespace ctebench {

ctesim::sim::Time host_now() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
             .count() *
         ctesim::sim::kNanosecond;
}

Scoped::Scoped(ctesim::trace::Recorder* rec, const char* name,
               std::size_t id, ctesim::trace::Track track)
    : rec_(rec), track_(track) {
  if (rec_) rec_->begin(track_, "ctebench", name, std::to_string(id),
                        host_now());
}

Scoped::~Scoped() {
  if (rec_) rec_->end(track_, host_now());
}

std::vector<double> durations(const ctesim::trace::Recorder& rec,
                              std::string_view name) {
  std::vector<double> out;
  for (const auto& s : rec.spans()) {
    if (s.name == name) out.push_back(ctesim::sim::to_seconds(s.end - s.start));
  }
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("ctebench: median of nothing");
  return ctesim::percentile(std::move(values), 0.5);
}

double tail(std::vector<double> values, double* q_out) {
  if (values.empty()) throw std::logic_error("ctebench: tail of nothing");
  // Below 20 samples that percentile would fall under the median, so the
  // tail of a short closed loop is its slowest op.
  const double n = static_cast<double>(values.size());
  const double q = n >= 20.0 ? std::min(0.99, 1.0 - 10.0 / n) : 1.0;
  if (q_out) *q_out = q;
  return ctesim::percentile(std::move(values), q);
}

void add_op_metrics(Result& result, const std::vector<double>& op_s,
                    const std::vector<bool>& ok, double slo_s) {
  double q = 1.0;
  const double p99 = tail(op_s, &q);
  std::size_t within = 0;
  for (std::size_t i = 0; i < op_s.size(); ++i) {
    if (ok[i] && op_s[i] <= slo_s) ++within;
  }
  result.add("study_s", median(op_s), "s");
  result.add("latency_p99_ms", p99 * 1e3, "ms");
  result.add("slo_ok_share",
             static_cast<double>(within) / static_cast<double>(op_s.size()),
             "share");
  std::printf("  ops timed: %zu; latency_p99_ms is the p%.4g of them; "
              "slo limit %.4g s\n",
              op_s.size(), q * 100.0, slo_s);
}

Loop closed_loop(
    const Args& args, int cycle, Result& result,
    const std::function<void()>& setup,
    const std::function<void(std::size_t, ctesim::trace::Recorder*)>& run,
    const std::function<OpOutcome(std::size_t, const ctesim::trace::Recorder*)>&
        check) {
  Loop loop;
  for (int r = 0; r < kSetupReps; ++r) {
    loop.setup_s.push_back(setup_sample_seconds(setup));
  }
  std::vector<char> seen(static_cast<std::size_t>(cycle), 0);
  loop.digests.assign(static_cast<std::size_t>(cycle), 0);
  const auto start = Clock::now();
  for (std::size_t i = 0; seconds_since(start) < args.seconds ||
                          i < 2 * static_cast<std::size_t>(cycle);
       ++i) {
    const int input = static_cast<int>(i % static_cast<std::size_t>(cycle));
    const bool traced =
        args.trace && (i / static_cast<std::size_t>(cycle)) % 2 == 1;
    ctesim::trace::Recorder* rec = traced ? loop.spans.get() : nullptr;
    const auto t0 = Clock::now();
    run(i, rec);
    loop.seconds.push_back(seconds_since(t0));
    OpOutcome out = check(i, rec);
    const auto k = static_cast<std::size_t>(input);
    if (!seen[k]) {
      seen[k] = 1;
      loop.digests[k] = out.digest;
    } else if (loop.digests[k] != out.digest) {
      out.ok = false;
      result.fail("op " + std::to_string(i) +
                  ": repeated input gave different simulated output");
    }
    loop.traced.push_back(traced);
    loop.ok.push_back(out.ok);
    loop.input.push_back(input);
    loop.setup_s.push_back(setup_sample_seconds(setup));
  }
  return loop;
}

void finish_loop(const Args& args, const Loop& loop, double slo_s,
                 Result& result) {
  result.add("setup_s", median(loop.setup_s), "s");
  std::vector<double> op_s, traced_op_s;
  std::vector<bool> ok;
  for (std::size_t i = 0; i < loop.seconds.size(); ++i) {
    result.failed += loop.ok[i] ? 0 : 1;
    if (loop.traced[i]) {
      traced_op_s.push_back(loop.seconds[i]);
    } else {
      op_s.push_back(loop.seconds[i]);
      ok.push_back(loop.ok[i]);
    }
  }
  result.attempted = static_cast<std::int64_t>(loop.seconds.size());
  add_op_metrics(result, op_s, ok, slo_s);
  if (args.trace) {
    result.add("trace.overhead_study_ms",
               (median(traced_op_s) - median(op_s)) * 1e3, "ms");
  }
  result.digest = ctesim::kFnvOffsetBasis;
  for (std::uint64_t d : loop.digests) {
    result.digest = ctesim::hash_combine(result.digest, d);
  }
}

double setup_sample_seconds(const std::function<void()>& setup) {
  const auto t0 = Clock::now();
  long calls = 0;
  double elapsed = 0.0;
  do {
    setup();
    ++calls;
    elapsed = seconds_since(t0);
  } while (elapsed < kSetupSampleSeconds);
  return elapsed / static_cast<double>(calls);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec on Linux, so a child of
  // a larger launcher would report the launcher's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("ctebench: no VmHWM in /proc/self/status");
}

void print_line(const std::string& label, double value,
                const std::string& unit) {
  std::printf("  %-34s = %.6g %s\n", label.c_str(), value, unit.c_str());
}

}  // namespace ctebench
