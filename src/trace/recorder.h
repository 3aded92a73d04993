// Simulation-wide observability: one Recorder collects spans (nestable
// begin/end intervals), instant events and counter samples from every layer
// of the simulator — the engine, the simulated MPI runtime, the congestion
// model and the batch scheduler — on a shared simulated-time axis.
//
// Events are keyed by a Track (rank / node / job / the whole simulation),
// which becomes the process/thread lane when the trace is exported to the
// Chrome trace_event format (see trace/chrome.h).
//
// Recording is deterministic: for a fixed workload and seed the recorded
// event sequence — and therefore every exported byte — is identical across
// runs. A disabled Recorder (or a null pointer at the instrumentation site)
// reduces every hook to one branch, so tracing costs nothing when off.
//
// A Recorder is NOT thread-safe. Concurrent producers (the server's worker
// pool) each own a private Recorder and combine them with merge_from(),
// which canonically orders events by (time, track, names, payload) — the
// merged trace depends only on the *set* of recorded events, never on which
// worker recorded what or in which order the parts are merged.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/time.h"

namespace ctesim::trace {

/// Which lane of the simulation an event belongs to. Exported as the
/// process (kind) and thread (index) of the Chrome trace.
enum class TrackKind : std::uint8_t {
  kGlobal = 0,  ///< simulation-wide (engine, network aggregates)
  kRank,        ///< one simulated MPI rank
  kNode,        ///< one machine node
  kJob,         ///< one batch job
  kWorker,      ///< one server worker thread (real time, not simulated)
};

/// Number of TrackKind values (sized arrays in the exporters).
inline constexpr int kNumTrackKinds = 5;

struct Track {
  TrackKind kind = TrackKind::kGlobal;
  std::int32_t index = 0;

  static constexpr Track global() { return {TrackKind::kGlobal, 0}; }
  static constexpr Track rank(int r) { return {TrackKind::kRank, r}; }
  static constexpr Track node(int n) { return {TrackKind::kNode, n}; }
  static constexpr Track job(int id) { return {TrackKind::kJob, id}; }
  static constexpr Track worker(int w) { return {TrackKind::kWorker, w}; }

  bool operator==(const Track&) const = default;
  bool operator<(const Track& other) const {
    if (kind != other.kind) return kind < other.kind;
    return index < other.index;
  }
};

/// Human-readable lane label ("sim", "rank 3", "node 7", "job 12").
std::string label(Track track);

/// A closed interval of simulated time on one track. `category` must point
/// to storage outliving the Recorder (string literals at every call site).
struct Span {
  Track track;
  const char* category = "";
  std::string name;    ///< what happened: "compute", "send", "run", ...
  std::string detail;  ///< free-form qualifier: kernel name, profile, ...
  sim::Time start = 0;
  sim::Time end = 0;
  std::uint64_t bytes = 0;  ///< payload size; 0 = not applicable
  int peer = -1;            ///< peer rank; -1 = not applicable
};

/// A point event (job submitted, job killed, ...).
struct Instant {
  Track track;
  const char* category = "";
  std::string name;
  std::string detail;
  sim::Time time = 0;
};

/// One sample of a named time series (queue depth, busy nodes, cumulative
/// queueing seconds, ...). `category` and `name` are string literals.
struct CounterSample {
  Track track;
  const char* category = "";
  const char* name = "";
  sim::Time time = 0;
  double value = 0.0;
};

class Recorder {
 public:
  explicit Recorder(bool enabled = true) : enabled_(enabled) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Record a completed interval (both endpoints already known).
  void span(Track track, const char* category, std::string name,
            std::string detail, sim::Time start, sim::Time end,
            std::uint64_t bytes = 0, int peer = -1);

  /// Open a nested interval on `track`; every begin() must be closed by a
  /// matching end() on the same track (innermost first).
  void begin(Track track, const char* category, std::string name,
             std::string detail, sim::Time t);
  void end(Track track, sim::Time t);
  /// Open (unclosed) begin() count on a track; 0 once the track is balanced.
  int open_depth(Track track) const;

  void instant(Track track, const char* category, std::string name,
               std::string detail, sim::Time t);

  void counter(Track track, const char* category, const char* name,
               sim::Time t, double value);

  // --- queries (tests, report renderers) ---------------------------------
  /// Completed spans, in completion order (a nested child precedes its
  /// parent; begin/end pairs appear when end() fires).
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Instant>& instants() const { return instants_; }
  const std::vector<CounterSample>& counters() const { return counters_; }

  /// Samples of one counter on one track, in recording (= time) order.
  std::vector<CounterSample> counter_series(const char* name,
                                            Track track = Track::global())
      const;

  /// Every track that any recorded event references, sorted.
  std::vector<Track> tracks() const;

  /// Absorb the completed events of `parts` (plus anything already recorded
  /// here) and canonically re-sort all three event lists, so the result is
  /// identical for any partition of the same events across parts — the
  /// deterministic-merge half of the one-Recorder-per-worker pattern. Open
  /// begin() spans in the parts are ignored (close them before merging).
  void merge_from(const std::vector<const Recorder*>& parts);

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::vector<CounterSample> counters_;
  std::map<Track, std::vector<Span>> open_;  ///< begin() stacks per track
};

}  // namespace ctesim::trace
