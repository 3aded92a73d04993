// Tests for the observability subsystem (src/trace/): span nesting,
// counter monotonicity, deterministic (byte-identical) Chrome export and a
// full JSON round-trip through the bundled parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/wrf.h"
#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/workload.h"
#include "core/engine.h"
#include "fault/fault.h"
#include "power/power_model.h"
#include "trace/chrome.h"
#include "trace/recorder.h"
#include "util/json.h"
#include "util/check.h"

namespace ctesim::trace {
namespace {

TEST(Track, OrderingAndLabels) {
  EXPECT_EQ(Track::global(), Track::global());
  EXPECT_LT(Track::global(), Track::rank(0));
  EXPECT_LT(Track::rank(3), Track::rank(4));
  EXPECT_LT(Track::rank(99), Track::node(0));
  EXPECT_LT(Track::node(5), Track::job(0));
  EXPECT_EQ(label(Track::global()), "sim");
  EXPECT_EQ(label(Track::rank(3)), "rank 3");
  EXPECT_EQ(label(Track::node(7)), "node 7");
  EXPECT_EQ(label(Track::job(12)), "job 12");
}

TEST(Recorder, SpanNestingClosesInnermostFirst) {
  Recorder rec;
  const Track t = Track::job(1);
  rec.begin(t, "batch", "outer", "", sim::from_seconds(0.0));
  EXPECT_EQ(rec.open_depth(t), 1);
  rec.begin(t, "batch", "inner", "", sim::from_seconds(1.0));
  EXPECT_EQ(rec.open_depth(t), 2);
  rec.end(t, sim::from_seconds(2.0));
  rec.end(t, sim::from_seconds(3.0));
  EXPECT_EQ(rec.open_depth(t), 0);
  ASSERT_EQ(rec.spans().size(), 2u);
  // Completion order: the inner span closed (and was emitted) first.
  EXPECT_EQ(rec.spans()[0].name, "inner");
  EXPECT_EQ(rec.spans()[1].name, "outer");
  EXPECT_EQ(rec.spans()[0].start, sim::from_seconds(1.0));
  EXPECT_EQ(rec.spans()[0].end, sim::from_seconds(2.0));
  EXPECT_EQ(rec.spans()[1].end, sim::from_seconds(3.0));
}

TEST(Recorder, MismatchedEndThrows) {
  Recorder rec;
  EXPECT_THROW(rec.end(Track::job(9), 100), ContractError);
  rec.begin(Track::job(9), "batch", "run", "", 100);
  // An end() earlier than the span's begin is a contract violation too.
  EXPECT_THROW(rec.end(Track::job(9), 50), ContractError);
}

TEST(Recorder, DisabledRecordsNothingCheaply) {
  Recorder rec(/*enabled=*/false);
  rec.span(Track::rank(0), "mpi", "compute", "", 0, 100);
  rec.begin(Track::job(0), "batch", "queued", "", 0);
  rec.end(Track::job(0), 10);  // no-op, must not throw despite no begin
  rec.instant(Track::global(), "core", "tick", "", 5);
  rec.counter(Track::global(), "core", "x", 5, 1.0);
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_TRUE(rec.instants().empty());
  EXPECT_TRUE(rec.counters().empty());
  EXPECT_TRUE(rec.tracks().empty());
}

TEST(Recorder, CounterSeriesFiltersByNameAndTrack) {
  Recorder rec;
  rec.counter(Track::global(), "batch", "queue_depth", 10, 3.0);
  rec.counter(Track::global(), "batch", "busy_nodes", 10, 8.0);
  rec.counter(Track::global(), "batch", "queue_depth", 20, 2.0);
  rec.counter(Track::node(1), "batch", "queue_depth", 30, 99.0);
  const auto series = rec.counter_series("queue_depth");
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].value, 3.0);
  EXPECT_EQ(series[1].value, 2.0);
  EXPECT_EQ(rec.counter_series("queue_depth", Track::node(1)).size(), 1u);
}

TEST(Engine, SamplesEventCounterMonotonically) {
  Recorder rec;
  sim::Engine engine;
  engine.set_recorder(&rec, /*sample_interval=*/8);
  for (int i = 0; i < 100; ++i) {
    engine.schedule_in(i, [] {});
  }
  engine.run();
  const auto series = rec.counter_series("events_processed");
  ASSERT_GE(series.size(), 10u);  // 100 events / every 8th
  double prev = 0.0;
  sim::Time prev_t = -1;
  for (const auto& sample : series) {
    EXPECT_EQ(sample.category, std::string("core"));
    EXPECT_GT(sample.value, prev);
    EXPECT_GE(sample.time, prev_t);
    prev = sample.value;
    prev_t = sample.time;
  }
}

TEST(Json, EscapeHandlesControlAndQuotes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, ParsesScalarsArraysObjects) {
  const auto v = json::parse(
      R"({"a": [1, -2.5e2, true, null], "s": "x\né", "nested": {"k": 2}})");
  ASSERT_TRUE(v.is_object());
  const auto* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -250.0);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].type, json::Value::Type::kNull);
  EXPECT_EQ(v.find("s")->string, "x\n\xc3\xa9");
  EXPECT_EQ(v.find("nested")->find("k")->number, 2.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(json::parse("nul"), std::runtime_error);
  // Nesting is bounded so a short line cannot overflow the parser's stack.
  EXPECT_THROW(json::parse(std::string(60000, '[')), std::runtime_error);
  EXPECT_THROW(json::parse(std::string(129, '[') + std::string(129, ']')),
               std::runtime_error);
  EXPECT_NO_THROW(
      json::parse(std::string(128, '[') + std::string(128, ']')));
}

// A small batch workload used by the export tests: real scheduler, real
// placement, recorded end to end.
batch::ClusterResult traced_cluster(Recorder* rec,
                                    batch::ClusterOptions options = {}) {
  const batch::RuntimeModel model(arch::cte_arm());
  batch::WorkloadConfig config;
  config.num_jobs = 24;
  config.mean_interarrival_s = 20.0;
  const auto jobs = batch::generate(config, model, 17);
  options.recorder = rec;
  return batch::run_cluster(model, jobs, options);
}

// Exports `rec`, parses it back and checks that every counter of
// `category` survives with its name and value, in recording order. Returns
// how many there were.
std::size_t expect_counters_round_trip(const Recorder& rec,
                                       const std::string& category) {
  std::ostringstream os;
  write_chrome_trace(rec, os);
  const auto doc = json::parse(os.str());
  std::vector<std::string> parsed;
  for (const auto& ev : doc.find("traceEvents")->array) {
    if (ev.find("ph")->string != "C" || ev.find("cat")->string != category) {
      continue;
    }
    const auto& arg = ev.find("args")->object.at(0);
    parsed.push_back(arg.first + "=" + json::number(arg.second.number));
  }
  std::vector<std::string> recorded;
  for (const auto& c : rec.counters()) {
    if (c.category == category) {
      recorded.push_back(std::string(c.name) + "=" + json::number(c.value));
    }
  }
  EXPECT_EQ(parsed, recorded) << category;
  return recorded.size();
}

TEST(Chrome, ExportIsByteIdenticalForIdenticalRuns) {
  Recorder a;
  Recorder b;
  traced_cluster(&a);
  traced_cluster(&b);
  std::ostringstream oa;
  std::ostringstream ob;
  write_chrome_trace(a, oa);
  write_chrome_trace(b, ob);
  EXPECT_FALSE(oa.str().empty());
  EXPECT_EQ(oa.str(), ob.str());
}

TEST(Chrome, ExportRoundTripsThroughJsonParser) {
  Recorder rec;
  traced_cluster(&rec);
  std::ostringstream os;
  write_chrome_trace(rec, os);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  const auto* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int spans = 0;
  int counters = 0;
  int metadata = 0;
  for (const auto& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "X") {
      ++spans;
      EXPECT_EQ(ev.find("cat")->string, "batch");
      EXPECT_GE(ev.find("dur")->number, 0.0);
    } else if (ph->string == "C") {
      ++counters;
    } else if (ph->string == "M") {
      ++metadata;
    }
  }
  // Every job contributes a "queued" and a "run" span; counters sample the
  // machine state at every scheduling event.
  EXPECT_GE(spans, 2 * 24);
  EXPECT_GT(counters, 0);
  EXPECT_GT(metadata, 0);
  // The counters include the lanes the bench acceptance criteria name.
  EXPECT_FALSE(rec.counter_series("utilization").empty());
  EXPECT_FALSE(rec.counter_series("queue_depth").empty());
  EXPECT_FALSE(rec.counter_series("busy_nodes").empty());

  // The counter families the energy, resilience and sampling studies
  // export parse back value for value.
  const auto pm = power::default_power(arch::cte_arm());
  Recorder powered;
  batch::ClusterOptions power_options;
  power_options.power = &pm;
  traced_cluster(&powered, power_options);
  EXPECT_GT(expect_counters_round_trip(powered, "power"), 0u);

  fault::FaultTimeline faults;
  faults.fail(100.0, 3);
  faults.repair(400.0, 3);
  Recorder faulted;
  batch::ClusterOptions fault_options;
  fault_options.faults = &faults;
  traced_cluster(&faulted, fault_options);
  EXPECT_GT(expect_counters_round_trip(faulted, "fault"), 0u);
  const auto down = faulted.counter_series("down_nodes");
  EXPECT_TRUE(std::any_of(down.begin(), down.end(),
                          [](const auto& s) { return s.value == 1.0; }));

  apps::WrfConfig wrf;
  wrf.sampling.mode = sampling::Mode::kSampled;
  wrf.sampling.k = 2;
  Recorder sampled;
  wrf.recorder = &sampled;
  apps::run_wrf(arch::cte_arm(), 1, wrf);
  EXPECT_GE(expect_counters_round_trip(sampled, "sampling"), 4u);
}

TEST(Chrome, NonFiniteCounterIsRejectedBeforeWriting) {
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Recorder rec;
    rec.counter(Track::global(), "batch", "ok", 0, 1.0);
    rec.counter(Track::global(), "batch", "bad", 10, bad);
    std::ostringstream os;
    EXPECT_THROW(write_chrome_trace(rec, os), ContractError);
    EXPECT_TRUE(os.str().empty());
  }
}

TEST(Chrome, JobLifecycleSpansMatchRecords) {
  Recorder rec;
  const auto result = traced_cluster(&rec);
  int runs = 0;
  for (const auto& span : rec.spans()) {
    if (span.name != "run") continue;
    ++runs;
    ASSERT_EQ(span.track.kind, TrackKind::kJob);
    const auto& record = result.records[span.track.index];
    EXPECT_NEAR(sim::to_seconds(span.start), record.start_s, 1e-9);
    EXPECT_NEAR(sim::to_seconds(span.end), record.end_s, 1e-9);
  }
  EXPECT_EQ(runs, static_cast<int>(result.records.size()));
}

TEST(Chrome, WriteToUnopenablePathThrows) {
  Recorder rec;
  EXPECT_THROW(write_chrome_trace(rec, "/nonexistent-dir/trace.json"),
               std::runtime_error);
}

// --- per-worker recorder merging (the server's concurrency pattern) --------

namespace {

/// A little per-worker activity: one span, one instant, one counter sample.
void record_worker(Recorder& rec, int worker, sim::Time base) {
  const Track track = Track::worker(worker);
  rec.span(track, "request", "simulate", "seed " + std::to_string(worker),
           base, base + sim::kMillisecond);
  rec.instant(track, "cache", "hit", "", base + 2 * sim::kMillisecond);
  rec.counter(track, "queue", "depth", base, static_cast<double>(worker));
}

}  // namespace

TEST(Recorder, MergeFromIsOrderIndependent) {
  Recorder a, b, c;
  record_worker(a, 0, 5 * sim::kMillisecond);
  record_worker(b, 1, 1 * sim::kMillisecond);
  record_worker(c, 2, 3 * sim::kMillisecond);

  Recorder merged_abc;
  merged_abc.merge_from({&a, &b, &c});
  Recorder merged_cba;
  merged_cba.merge_from({&c, &b, &a});

  std::ostringstream out_abc, out_cba;
  write_chrome_trace(merged_abc, out_abc);
  write_chrome_trace(merged_cba, out_cba);
  EXPECT_EQ(out_abc.str(), out_cba.str());  // byte-identical either way
  EXPECT_EQ(merged_abc.spans().size(), 3u);
  EXPECT_EQ(merged_abc.instants().size(), 3u);
  EXPECT_EQ(merged_abc.counters().size(), 3u);
  // Canonical order: sorted by start time, so b (1ms) leads.
  EXPECT_EQ(merged_abc.spans()[0].detail, "seed 1");
}

TEST(Recorder, MergeFromKeepsOwnEventsAndSkipsOpenSpans) {
  Recorder own;
  own.span(Track::global(), "admission", "enqueue", "", 0, sim::kMillisecond);
  Recorder part;
  record_worker(part, 4, 2 * sim::kMillisecond);
  part.begin(Track::worker(4), "request", "unfinished", "",
             9 * sim::kMillisecond);  // still open: must not merge
  own.merge_from({&part, nullptr});
  EXPECT_EQ(own.spans().size(), 2u);
  EXPECT_EQ(own.open_depth(Track::worker(4)), 0);
}

TEST(Recorder, MergeFromThreadedWritersIsDeterministic) {
  // The real usage: each thread owns a private Recorder; after joining, a
  // merge produces one canonical trace regardless of thread scheduling.
  constexpr int kWorkers = 4;
  std::string first;
  for (int round = 0; round < 3; ++round) {
    std::vector<std::unique_ptr<Recorder>> recs;
    for (int w = 0; w < kWorkers; ++w) {
      recs.push_back(std::make_unique<Recorder>());
    }
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&recs, w] {
        for (int i = 0; i < 20; ++i) {
          record_worker(*recs[w],
                        w, (1 + i) * sim::kMillisecond + w * sim::kMicrosecond);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    Recorder merged;
    std::vector<const Recorder*> parts;
    for (const auto& rec : recs) parts.push_back(rec.get());
    merged.merge_from(parts);
    std::ostringstream out;
    write_chrome_trace(merged, out);
    if (round == 0) {
      first = out.str();
      EXPECT_EQ(merged.spans().size(), kWorkers * 20u);
    } else {
      EXPECT_EQ(out.str(), first);
    }
  }
}

}  // namespace
}  // namespace ctesim::trace
