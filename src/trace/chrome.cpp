#include "trace/chrome.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/check.h"
#include "util/json.h"

namespace ctesim::trace {

namespace {

int pid_of(Track track) { return static_cast<int>(track.kind) + 1; }

const char* process_name(TrackKind kind) {
  switch (kind) {
    case TrackKind::kGlobal:
      return "simulator";
    case TrackKind::kRank:
      return "ranks";
    case TrackKind::kNode:
      return "nodes";
    case TrackKind::kJob:
      return "jobs";
    case TrackKind::kWorker:
      return "server workers";
  }
  return "?";
}

/// Picoseconds as fixed-point microseconds ("12.000345"): exact, locale-
/// independent, byte-stable — the Chrome `ts`/`dur` unit is microseconds.
std::string ts_us(sim::Time ps) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%lld.%06lld",
                static_cast<long long>(ps / 1'000'000),
                static_cast<long long>(ps % 1'000'000));
  return buf;
}

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  void open() { os_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"; }
  void close() { os_ << "\n]}\n"; }

  /// Start one event object; the caller appends fields then calls finish().
  std::ostream& next() {
    if (!first_) os_ << ",\n";
    first_ = false;
    return os_ << "{";
  }
  void finish() { os_ << "}"; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

void write_common(std::ostream& os, const char* category, Track track,
                  sim::Time t) {
  os << "\"cat\":\"" << json_escape(category) << "\",\"pid\":" << pid_of(track)
     << ",\"tid\":" << track.index << ",\"ts\":" << ts_us(t);
}

void write_args(std::ostream& os, const std::string& detail,
                std::uint64_t bytes, int peer) {
  if (detail.empty() && bytes == 0 && peer < 0) return;
  os << ",\"args\":{";
  bool first = true;
  if (!detail.empty()) {
    os << "\"detail\":\"" << json_escape(detail) << "\"";
    first = false;
  }
  if (bytes != 0) {
    if (!first) os << ",";
    os << "\"bytes\":" << bytes;
    first = false;
  }
  if (peer >= 0) {
    if (!first) os << ",";
    os << "\"peer\":" << peer;
  }
  os << "}";
}

}  // namespace

std::string json_escape(const std::string& s) { return json::escape(s); }

void write_chrome_trace(const Recorder& recorder, std::ostream& os) {
  // JSON has no spelling for NaN or infinity ("%.12g" would print "nan").
  // Checked before the first byte so a bad counter leaves no torn document.
  for (const CounterSample& c : recorder.counters()) {
    if (!std::isfinite(c.value)) {
      throw ContractError(std::string("trace: counter '") + c.name +
                          "' has a non-finite value");
    }
  }

  EventWriter events(os);
  events.open();

  // Metadata first: name the process of every track kind in use and the
  // thread of every track, so Perfetto shows "ranks / rank 0" lanes.
  bool kind_seen[kNumTrackKinds] = {};
  for (Track track : recorder.tracks()) {
    const auto kind = static_cast<std::size_t>(track.kind);
    if (!kind_seen[kind]) {
      kind_seen[kind] = true;
      events.next() << "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                    << pid_of(track) << ",\"args\":{\"name\":\""
                    << process_name(track.kind) << "\"}";
      events.finish();
    }
    events.next() << "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                  << pid_of(track) << ",\"tid\":" << track.index
                  << ",\"args\":{\"name\":\"" << json_escape(label(track))
                  << "\"}";
    events.finish();
  }

  for (const Span& s : recorder.spans()) {
    std::ostream& e = events.next();
    e << "\"name\":\"" << json_escape(s.name) << "\",\"ph\":\"X\",";
    write_common(e, s.category, s.track, s.start);
    e << ",\"dur\":" << ts_us(s.end - s.start);
    write_args(e, s.detail, s.bytes, s.peer);
    events.finish();
  }

  for (const Instant& i : recorder.instants()) {
    std::ostream& e = events.next();
    e << "\"name\":\"" << json_escape(i.name)
      << "\",\"ph\":\"i\",\"s\":\"t\",";
    write_common(e, i.category, i.track, i.time);
    write_args(e, i.detail, 0, -1);
    events.finish();
  }

  for (const CounterSample& c : recorder.counters()) {
    std::ostream& e = events.next();
    e << "\"name\":\"" << json_escape(c.name) << "\",\"ph\":\"C\",";
    write_common(e, c.category, c.track, c.time);
    e << ",\"args\":{\"" << json_escape(c.name)
      << "\":" << json::number(c.value) << "}";
    events.finish();
  }

  events.close();
}

void write_chrome_trace(const Recorder& recorder, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("trace: cannot open '" + path + "' for writing");
  }
  write_chrome_trace(recorder, out);
}

}  // namespace ctesim::trace
