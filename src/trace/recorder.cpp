#include "trace/recorder.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace ctesim::trace {

std::string label(Track track) {
  switch (track.kind) {
    case TrackKind::kGlobal:
      return "sim";
    case TrackKind::kRank:
      return "rank " + std::to_string(track.index);
    case TrackKind::kNode:
      return "node " + std::to_string(track.index);
    case TrackKind::kJob:
      return "job " + std::to_string(track.index);
    case TrackKind::kWorker:
      return "worker " + std::to_string(track.index);
  }
  return "?";
}

void Recorder::span(Track track, const char* category, std::string name,
                    std::string detail, sim::Time start, sim::Time end,
                    std::uint64_t bytes, int peer) {
  if (!enabled_) return;
  CTESIM_EXPECTS(end >= start);
  spans_.push_back(Span{track, category, std::move(name), std::move(detail),
                        start, end, bytes, peer});
}

void Recorder::begin(Track track, const char* category, std::string name,
                     std::string detail, sim::Time t) {
  if (!enabled_) return;
  open_[track].push_back(
      Span{track, category, std::move(name), std::move(detail), t, t, 0, -1});
}

void Recorder::end(Track track, sim::Time t) {
  if (!enabled_) return;
  auto it = open_.find(track);
  CTESIM_EXPECTS(it != open_.end() && !it->second.empty());
  Span span = std::move(it->second.back());
  it->second.pop_back();
  CTESIM_EXPECTS(t >= span.start);
  span.end = t;
  spans_.push_back(std::move(span));
}

int Recorder::open_depth(Track track) const {
  auto it = open_.find(track);
  return it == open_.end() ? 0 : static_cast<int>(it->second.size());
}

void Recorder::instant(Track track, const char* category, std::string name,
                       std::string detail, sim::Time t) {
  if (!enabled_) return;
  instants_.push_back(
      Instant{track, category, std::move(name), std::move(detail), t});
}

void Recorder::counter(Track track, const char* category, const char* name,
                       sim::Time t, double value) {
  if (!enabled_) return;
  counters_.push_back(CounterSample{track, category, name, t, value});
}

std::vector<CounterSample> Recorder::counter_series(const char* name,
                                                    Track track) const {
  std::vector<CounterSample> series;
  for (const CounterSample& s : counters_) {
    if (s.track == track && std::strcmp(s.name, name) == 0) {
      series.push_back(s);
    }
  }
  return series;
}

std::vector<Track> Recorder::tracks() const {
  std::vector<Track> all;
  for (const Span& s : spans_) all.push_back(s.track);
  for (const Instant& i : instants_) all.push_back(i.track);
  for (const CounterSample& c : counters_) all.push_back(c.track);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

void Recorder::merge_from(const std::vector<const Recorder*>& parts) {
  for (const Recorder* part : parts) {
    if (!part || part == this) continue;
    spans_.insert(spans_.end(), part->spans_.begin(), part->spans_.end());
    instants_.insert(instants_.end(), part->instants_.begin(),
                     part->instants_.end());
    counters_.insert(counters_.end(), part->counters_.begin(),
                     part->counters_.end());
  }
  // Total orders over every field: the sorted lists depend only on the event
  // multiset, so any partition of the same events merges to identical bytes.
  std::sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end < b.end;
    if (!(a.track == b.track)) return a.track < b.track;
    if (const int c = std::strcmp(a.category, b.category)) return c < 0;
    if (a.name != b.name) return a.name < b.name;
    if (a.detail != b.detail) return a.detail < b.detail;
    if (a.bytes != b.bytes) return a.bytes < b.bytes;
    return a.peer < b.peer;
  });
  std::sort(instants_.begin(), instants_.end(),
            [](const Instant& a, const Instant& b) {
              if (a.time != b.time) return a.time < b.time;
              if (!(a.track == b.track)) return a.track < b.track;
              if (const int c = std::strcmp(a.category, b.category)) {
                return c < 0;
              }
              if (a.name != b.name) return a.name < b.name;
              return a.detail < b.detail;
            });
  std::sort(counters_.begin(), counters_.end(),
            [](const CounterSample& a, const CounterSample& b) {
              if (a.time != b.time) return a.time < b.time;
              if (!(a.track == b.track)) return a.track < b.track;
              if (const int c = std::strcmp(a.category, b.category)) {
                return c < 0;
              }
              if (const int c = std::strcmp(a.name, b.name)) return c < 0;
              return a.value < b.value;
            });
}

}  // namespace ctesim::trace
