// The capacity-planning server: protocol strictness, exact result caching,
// admission control / shedding, coalescing, deadlines, the TCP transport
// and cross-instance determinism of reply bytes.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/configs.h"
#include "arch/machine_io.h"
#include "batch/cluster.h"
#include "batch/runtime.h"
#include "batch/workload.h"
#include "fault/fault.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp.h"
#include "util/json.h"

namespace ctesim::server {
namespace {

std::string simulate_line(int jobs, int seed,
                          const std::string& extra = "") {
  return "{\"op\":\"simulate\",\"machine\":\"cte-arm\",\"jobs\":" +
         std::to_string(jobs) + ",\"seed\":" + std::to_string(seed) + extra +
         "}";
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.cache_capacity = 16;
  return config;
}

bool is_error(const std::string& reply, const std::string& code) {
  return reply.find("\"op\":\"error\"") != std::string::npos &&
         reply.find("\"code\":\"" + code + "\"") != std::string::npos;
}

// --- protocol parsing ------------------------------------------------------

TEST(Protocol, ParsesFullSimulateRequest) {
  const Request request = parse_request(
      "{\"op\":\"simulate\",\"machine\":\"cte-arm\",\"jobs\":250,"
      "\"mean_interarrival_s\":8.5,\"burst_fraction\":0.4,"
      "\"min_nodes\":2,\"max_nodes\":16,\"queue\":\"fcfs\","
      "\"placement\":\"random\",\"seed\":42,\"deadline_ms\":1500}");
  EXPECT_EQ(request.op, Op::kSimulate);
  EXPECT_EQ(request.sim.machine, "cte-arm");
  EXPECT_EQ(request.sim.workload.num_jobs, 250);
  EXPECT_DOUBLE_EQ(request.sim.workload.mean_interarrival_s, 8.5);
  EXPECT_EQ(request.sim.workload.min_nodes, 2);
  EXPECT_EQ(request.sim.workload.max_nodes, 16);
  EXPECT_EQ(request.sim.queue, batch::QueuePolicy::kFcfs);
  EXPECT_EQ(request.sim.placement, sched::Policy::kRandom);
  EXPECT_EQ(request.sim.seed, 42u);
  EXPECT_DOUBLE_EQ(request.sim.deadline_ms, 1500.0);
}

TEST(Protocol, RejectsMalformedJson) {
  EXPECT_THROW(parse_request("{\"op\":"), ProtocolError);
  EXPECT_THROW(parse_request("not json at all"), ProtocolError);
  EXPECT_THROW(parse_request(""), ProtocolError);
  EXPECT_THROW(parse_request("[1,2,3]"), ProtocolError);
}

TEST(Protocol, RejectsUnknownOpAndFields) {
  EXPECT_THROW(parse_request("{\"op\":\"shutdown\"}"), ProtocolError);
  EXPECT_THROW(parse_request("{}"), ProtocolError);
  // A typo'd field must not silently change a study.
  EXPECT_THROW(parse_request(simulate_line(10, 1, ",\"sede\":9")),
               ProtocolError);
  EXPECT_THROW(parse_request("{\"op\":\"ping\",\"extra\":1}"),
               ProtocolError);
}

TEST(Protocol, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse_request(simulate_line(0, 1)), ProtocolError);
  EXPECT_THROW(parse_request(simulate_line(10, 1, ",\"burst_fraction\":1.5")),
               ProtocolError);
  EXPECT_THROW(parse_request(simulate_line(10, 1, ",\"queue\":\"sjf\"")),
               ProtocolError);
  EXPECT_THROW(parse_request(simulate_line(10, 1, ",\"seed\":1.25")),
               ProtocolError);
  EXPECT_THROW(
      parse_request(simulate_line(10, 1, ",\"deadline_ms\":-1")),
      ProtocolError);
  EXPECT_THROW(
      parse_request(
          simulate_line(10, 1, ",\"min_nodes\":8,\"max_nodes\":2")),
      ProtocolError);
  EXPECT_THROW(
      parse_request(simulate_line(10, 1, ",\"machine_ini\":\"x\"")),
      ProtocolError);  // machine + machine_ini together
}

TEST(Protocol, CanonicalWorkloadExcludesSeed) {
  Request a = parse_request(simulate_line(50, 1));
  Request b = parse_request(simulate_line(50, 999));
  EXPECT_EQ(canonical_workload(a.sim), canonical_workload(b.sim));
  Request c = parse_request(simulate_line(51, 1));
  EXPECT_NE(canonical_workload(a.sim), canonical_workload(c.sim));
}

TEST(Protocol, ParsesSamplingKnobs) {
  const Request request = parse_request(simulate_line(
      10, 1,
      ",\"sampling\":\"sampled\",\"sampling_k\":12,\"sampling_warmup\":3,"
      "\"sampling_phases\":4,\"sampling_seed\":9"));
  EXPECT_EQ(request.sim.sampling.mode, sampling::Mode::kSampled);
  EXPECT_EQ(request.sim.sampling.k, 12);
  EXPECT_EQ(request.sim.sampling.warmup, 3);
  EXPECT_EQ(request.sim.sampling.max_phases, 4);
  EXPECT_EQ(request.sim.sampling.seed, 9u);
}

TEST(Protocol, RejectsBadSamplingKnobs) {
  EXPECT_THROW(parse_request(simulate_line(10, 1, ",\"sampling\":\"maybe\"")),
               ProtocolError);
  EXPECT_THROW(parse_request(simulate_line(
                   10, 1, ",\"sampling\":\"sampled\",\"sampling_k\":0")),
               ProtocolError);
  EXPECT_THROW(parse_request(simulate_line(
                   10, 1, ",\"sampling\":\"sampled\",\"sampling_phases\":65")),
               ProtocolError);
  // Sub-knobs without opting into sampled mode are a contradiction, not a
  // silent no-op: the reply they configure would never be produced.
  EXPECT_THROW(parse_request(simulate_line(10, 1, ",\"sampling_k\":4")),
               ProtocolError);
}

TEST(Protocol, CanonicalWorkloadKeysSamplingOnlyWhenSampled) {
  // Exact requests — with or without the explicit spelling — must keep the
  // legacy cache key: old clients hit the same entries as before.
  Request legacy = parse_request(simulate_line(50, 1));
  Request exact =
      parse_request(simulate_line(50, 1, ",\"sampling\":\"exact\""));
  EXPECT_EQ(canonical_workload(legacy.sim), canonical_workload(exact.sim));
  EXPECT_EQ(canonical_workload(legacy.sim).find("sampling"),
            std::string::npos);
  // Sampled requests get their plan folded in so they never collide with
  // exact replies — and distinct plans never collide with each other.
  Request sampled =
      parse_request(simulate_line(50, 1, ",\"sampling\":\"sampled\""));
  EXPECT_NE(canonical_workload(legacy.sim), canonical_workload(sampled.sim));
  Request sampled_k = parse_request(simulate_line(
      50, 1, ",\"sampling\":\"sampled\",\"sampling_k\":12"));
  EXPECT_NE(canonical_workload(sampled.sim),
            canonical_workload(sampled_k.sim));
}

// --- result cache ----------------------------------------------------------

TEST(ResultCache, LruEvictionAndStats) {
  ResultCache cache(2);
  const auto reply = [](const char* s) {
    return std::make_shared<const std::string>(s);
  };
  const CacheKey k1{1, 1, 1}, k2{2, 2, 2}, k3{3, 3, 3};
  EXPECT_EQ(cache.get(k1), nullptr);
  cache.put(k1, reply("r1"));
  cache.put(k2, reply("r2"));
  EXPECT_EQ(*cache.get(k1), "r1");  // refreshes k1 -> k2 is now LRU
  cache.put(k3, reply("r3"));       // evicts k2
  EXPECT_EQ(cache.get(k2), nullptr);
  EXPECT_EQ(*cache.get(k1), "r1");
  EXPECT_EQ(*cache.get(k3), "r3");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ResultCache, CapacityZeroDisables) {
  ResultCache cache(0);
  cache.put(CacheKey{1, 1, 1}, std::make_shared<const std::string>("r"));
  EXPECT_EQ(cache.get(CacheKey{1, 1, 1}), nullptr);
  EXPECT_EQ(cache.stats().size, 0u);
}

// --- service ---------------------------------------------------------------

TEST(Service, PingAndStats) {
  Service service(small_config());
  EXPECT_EQ(service.handle("{\"op\":\"ping\"}"),
            "{\"op\":\"ping\",\"status\":\"ok\"}");
  const std::string stats = service.handle("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"op\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"workers\":2"), std::string::npos);
  service.shutdown();
}

TEST(Service, MalformedAndInvalidRequestsGetTypedErrors) {
  Service service(small_config());
  EXPECT_TRUE(is_error(service.handle("{\"op\""), "bad_request"));
  EXPECT_TRUE(is_error(service.handle(simulate_line(10, 1, ",\"x\":1")),
                       "bad_request"));
  // marenostrum4 is a fat tree; the cluster model needs a torus.
  EXPECT_TRUE(is_error(
      service.handle(
          "{\"op\":\"simulate\",\"machine\":\"marenostrum4\",\"jobs\":5}"),
      "bad_request"));
  EXPECT_TRUE(is_error(
      service.handle(
          "{\"op\":\"simulate\",\"machine\":\"no-such-machine\",\"jobs\":5}"),
      "bad_request"));
  // Wider than the machine.
  EXPECT_TRUE(is_error(
      service.handle(simulate_line(5, 1, ",\"max_nodes\":100000")),
      "bad_request"));
  const auto stats = service.stats();
  EXPECT_EQ(stats.errors, 5u);
  service.shutdown();
}

TEST(Service, ArrivalsBeyondTheSimulatedClockGetAnErrorReply) {
  // Five arrivals about 1e8 s apart lie far beyond the int64-picosecond
  // clock (~106 days). Converting them used to be undefined behaviour;
  // the protocol now refuses such a workload before it runs.
  Service service(small_config());
  const std::string reply =
      service.handle(simulate_line(5, 1, ",\"mean_interarrival_s\":1e8"));
  EXPECT_TRUE(is_error(reply, "bad_request")) << reply;
  EXPECT_NE(reply.find("mean_interarrival_s"), std::string::npos) << reply;
  // The service keeps serving.
  EXPECT_NE(service.handle(simulate_line(5, 1)).find("\"status\":\"ok\""),
            std::string::npos);
  service.shutdown();
}

/// A simulate line whose workload span, jobs x mean_interarrival_s +
/// max_runtime_s x walltime_pad_max, is `share` of the protocol's limit.
std::string span_line(int jobs, double share) {
  const double runtime_s = 1000.0;
  const double pad = 3.0;
  const double gap =
      (share * workload_span_limit_s() - runtime_s * pad) / jobs;
  std::ostringstream os;
  os.precision(17);
  os << ",\"mean_interarrival_s\":" << gap
     << ",\"max_runtime_s\":" << runtime_s
     << ",\"walltime_pad_max\":" << pad;
  return simulate_line(jobs, 3, os.str());
}

TEST(Protocol, WorkloadSpanIsBoundedByTheSimulatedClock) {
  // A quarter of the 2^63 ps range, about 26.7 days.
  EXPECT_NEAR(workload_span_limit_s(), 0x1p63 * 1e-12 / 4.0, 1e-3);
  EXPECT_NO_THROW(parse_request(span_line(5, 0.999)));
  EXPECT_THROW(parse_request(span_line(5, 1.001)), ProtocolError);
  EXPECT_THROW(parse_request(span_line(1000000, 1.001)), ProtocolError);
  // The wall-time term alone can exceed it: 1e9 s x 100.
  EXPECT_THROW(parse_request(simulate_line(
                   1, 1, ",\"max_runtime_s\":1e9,\"walltime_pad_max\":100")),
               ProtocolError);
}

TEST(Service, TheLargestAcceptedSpanRunsToCompletion) {
  // Arrivals spread over just under the limit still fit the clock, with
  // the rest of its range left for the arrival tail.
  Service service(small_config());
  const std::string reply = service.handle(span_line(5, 0.999));
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  service.shutdown();
}

TEST(Protocol, RequeueBackoffAndFaultsAtTheirServerValuesFitTheClock) {
  // The wire sets neither the requeue back-off nor a fault timeline: the
  // server runs every study with ClusterOptions' default back-off and no
  // faults, and the fields are unknown to the protocol.
  EXPECT_THROW(parse_request(simulate_line(5, 1, ",\"requeue_backoff_s\":1e9")),
               ProtocolError);
  EXPECT_THROW(parse_request(simulate_line(5, 1, ",\"faults\":[]")),
               ProtocolError);
  // The accepted span leaves room for both: the largest accepted
  // workload, with every node failing just after the last arrival and
  // repaired a full wall time later, requeues that job after the default
  // back-off and still completes on the clock.
  const Request request = parse_request(span_line(5, 0.999));
  const arch::MachineModel machine = arch::cte_arm();
  const batch::RuntimeModel model(machine);
  const auto jobs = batch::generate(request.sim.workload, model, 3);
  const double last_arrival = jobs.back().arrival_s;
  const double outage_s = request.sim.workload.max_runtime_s *
                          request.sim.workload.walltime_pad_max;
  fault::FaultTimeline faults;
  for (int node = 0; node < machine.num_nodes; ++node) {
    faults.fail(last_arrival + 1.0, node);
    faults.repair(last_arrival + 1.0 + outage_s, node);
  }
  batch::ClusterOptions options;
  options.faults = &faults;
  const auto result = batch::run_cluster(model, jobs, options);
  ASSERT_EQ(result.records.size(), jobs.size());
  const auto& last = result.records.back();
  EXPECT_EQ(last.attempts, 2);
  EXPECT_GE(last.start_s, last_arrival + outage_s);  // after the repair
  EXPECT_LT(last.end_s, 0x1p63 * 1e-12);
}

TEST(Service, OversizedRequestIsRejectedUnparsed) {
  ServiceConfig config = small_config();
  config.max_request_bytes = 64;
  Service service(config);
  const std::string big = simulate_line(10, 1) + std::string(100, ' ');
  EXPECT_TRUE(is_error(service.handle(big), "oversized"));
  service.shutdown();
}

TEST(Service, CacheHitIsByteIdentical) {
  Service service(small_config());
  const std::string line = simulate_line(60, 7);
  const std::string first = service.handle(line);
  const std::string second = service.handle(line);
  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(first, second);  // byte-identical, not just equivalent
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.machines_built, 1u);
  EXPECT_EQ(stats.machines_reused, 1u);
  service.shutdown();
}

TEST(Service, RepliesAreDeterministicAcrossInstances) {
  const std::string line = simulate_line(40, 3);
  std::string a, b;
  {
    Service service(small_config());
    a = service.handle(line);
    service.shutdown();
  }
  {
    ServiceConfig config = small_config();
    config.workers = 1;  // concurrency level must not change results
    config.cache_capacity = 0;
    Service service(config);
    b = service.handle(line);
    service.shutdown();
  }
  EXPECT_EQ(a, b);
}

TEST(Service, DifferentSeedsDiffer) {
  Service service(small_config());
  const std::string a = service.handle(simulate_line(40, 1));
  const std::string b = service.handle(simulate_line(40, 2));
  EXPECT_NE(a, b);
  EXPECT_NE(a.find("\"seed\":1"), std::string::npos);
  EXPECT_NE(b.find("\"seed\":2"), std::string::npos);
  service.shutdown();
}

TEST(Service, SampledWhatIfCarriesCiFieldsExactStaysLegacy) {
  Service service(small_config());
  const std::string exact = service.handle(simulate_line(20, 5));
  // Legacy/exact replies must not grow new fields.
  EXPECT_EQ(exact.find("\"sampling\""), std::string::npos);
  const std::string sampled = service.handle(
      simulate_line(20, 5, ",\"sampling\":\"sampled\",\"sampling_k\":8"));
  EXPECT_NE(sampled.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(sampled.find("\"sampling\":{\"total_node_s\":"),
            std::string::npos);
  EXPECT_NE(sampled.find("\"ci_half_node_s\":"), std::string::npos);
  EXPECT_NE(sampled.find("\"steps_simulated\":"), std::string::npos);
  EXPECT_NE(sampled.find("\"speedup\":"), std::string::npos);
  // Same line again: served from cache, byte-identical.
  EXPECT_EQ(sampled,
            service.handle(simulate_line(
                20, 5, ",\"sampling\":\"sampled\",\"sampling_k\":8")));
  // The cluster-dynamics metrics are untouched by the sampling estimate:
  // both replies describe the same schedule.
  const auto metric = [](const std::string& reply, const char* key) {
    const auto at = reply.find(key);
    return at == std::string::npos ? std::string()
                                   : reply.substr(at, 40);
  };
  EXPECT_EQ(metric(exact, "\"makespan_s\":"),
            metric(sampled, "\"makespan_s\":"));
  service.shutdown();
}

TEST(Service, ConcurrentIdenticalRequestsOneExecution) {
  ServiceConfig config = small_config();
  config.workers = 2;
  Service service(config);
  constexpr int kThreads = 8;
  std::vector<std::future<std::string>> replies;
  replies.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    replies.push_back(std::async(std::launch::async, [&service] {
      return service.handle(simulate_line(50, 11));
    }));
  }
  std::set<std::string> distinct;
  for (auto& reply : replies) distinct.insert(reply.get());
  EXPECT_EQ(distinct.size(), 1u);
  const auto stats = service.stats();
  // Every request either ran once, coalesced onto the run, or hit the
  // cache after it finished — but the simulation executed exactly once.
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.coalesced + stats.cache.hits + stats.completed,
            static_cast<std::uint64_t>(kThreads));
  service.shutdown();
}

TEST(Service, ConcurrentMixedSeedsAllSucceed) {
  ServiceConfig config = small_config();
  config.workers = 4;
  config.queue_capacity = 64;
  Service service(config);
  constexpr int kThreads = 12;
  std::vector<std::future<std::string>> replies;
  replies.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    replies.push_back(std::async(std::launch::async, [&service, i] {
      return service.handle(simulate_line(30, 1 + (i % 4)));
    }));
  }
  for (auto& reply : replies) {
    EXPECT_NE(reply.get().find("\"status\":\"ok\""), std::string::npos);
  }
  EXPECT_EQ(service.stats().completed, 4u);  // one run per distinct seed
  service.shutdown();
}

TEST(Service, ShedsWithTypedOverloadedReply) {
  ServiceConfig config = small_config();
  config.queue_capacity = 0;  // no waiting room: every miss sheds
  config.cache_capacity = 0;
  Service service(config);
  const std::string reply = service.handle(simulate_line(10, 1));
  EXPECT_TRUE(is_error(reply, "overloaded"));
  EXPECT_EQ(service.stats().shed, 1u);
  service.shutdown();
}

TEST(Service, QueueWaitDeadlineTimesOut) {
  ServiceConfig config = small_config();
  config.workers = 1;
  Service service(config);
  // The hook runs on the worker after dequeue, before the deadline check:
  // stalling there guarantees the deadline has passed deterministically.
  service.set_worker_hook(
      [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
  const std::string reply =
      service.handle(simulate_line(10, 1, ",\"deadline_ms\":0.5"));
  EXPECT_TRUE(is_error(reply, "timeout"));
  EXPECT_EQ(service.stats().timeouts, 1u);
  service.shutdown();
}

TEST(Service, CoalescedRequestsShareOneFlight) {
  ServiceConfig config = small_config();
  config.workers = 1;
  Service service(config);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> stalls{0};
  service.set_worker_hook([&] {
    stalls.fetch_add(1);
    released.wait();
  });
  auto first = std::async(std::launch::async, [&service] {
    return service.handle(simulate_line(25, 5));
  });
  while (stalls.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The run is now in flight and stalled; an identical request must attach
  // to it instead of executing again.
  auto second = std::async(std::launch::async, [&service] {
    return service.handle(simulate_line(25, 5));
  });
  while (service.stats().coalesced == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  EXPECT_EQ(first.get(), second.get());
  const auto stats = service.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  service.shutdown();
}

TEST(Service, InlineMachineIniBuildsOnceAndCaches) {
  Service service(small_config());
  // Identical inline INI text must build the machine once (label memo) and
  // replay the second request from the cache, byte-identically. The study
  // itself matches the named model: same workload hash, same metrics.
  const std::string ini = arch::machine_to_string(arch::cte_arm());
  const std::string inline_line =
      "{\"op\":\"simulate\",\"machine_ini\":\"" + json::escape(ini) +
      "\",\"jobs\":30,\"seed\":2}";
  const std::string by_ini = service.handle(inline_line);
  ASSERT_NE(by_ini.find("\"status\":\"ok\""), std::string::npos) << by_ini;
  EXPECT_EQ(service.handle(inline_line), by_ini);
  const std::string by_name = service.handle(simulate_line(30, 2));
  // The INI round-trip can differ from the built-in model by float ULPs
  // (so the config hash may differ), but the simulated study is the same:
  // everything from the workload hash on must match.
  EXPECT_EQ(by_ini.substr(by_ini.find("\"workload_hash\"")),
            by_name.substr(by_name.find("\"workload_hash\"")));
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache.hits, 1u);
  EXPECT_GE(stats.machines_reused, 1u);
  service.shutdown();
}

TEST(Service, LargeTorusUnderLoadRepliesOk) {
  // A 1536-node successor torus under a busy 1-64-node job mix, where
  // every seed in the placement's sample can be busy at once: the study
  // must still complete, not end in a code "internal" reply.
  std::ifstream in(std::string(CTESIM_SOURCE_DIR) +
                   "/examples/machines/a64fx_successor.ini");
  ASSERT_TRUE(in) << "missing examples/machines/a64fx_successor.ini";
  std::ostringstream text;
  text << in.rdbuf();
  std::string ini = text.str();
  for (const auto& [from, to] :
       {std::pair<std::string, std::string>{"nodes = 192", "nodes = 1536"},
        {"dims = 4 2 2 2 3 2", "dims = 8 4 4 2 3 2"}}) {
    const auto pos = ini.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    ini.replace(pos, from.size(), to);
  }
  Service service(small_config());
  const std::string reply = service.handle(
      "{\"op\":\"simulate\",\"machine_ini\":\"" + json::escape(ini) +
      "\",\"jobs\":100,\"mean_interarrival_s\":4,\"max_nodes\":64,"
      "\"seed\":1}");
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  service.shutdown();
}

// --- TCP transport ---------------------------------------------------------

TEST(Tcp, RoundTripAndByteIdenticalReplies) {
  Service service(small_config());
  TcpServer tcp(service, TcpOptions{});
  tcp.start();
  ASSERT_GT(tcp.port(), 0);
  Client client("127.0.0.1", tcp.port());
  EXPECT_EQ(client.request("{\"op\":\"ping\"}"),
            "{\"op\":\"ping\",\"status\":\"ok\"}");
  const std::string line = simulate_line(30, 9);
  const std::string first = client.request(line);
  Client other("127.0.0.1", tcp.port());  // different connection
  EXPECT_EQ(other.request(line), first);
  tcp.stop();
  service.shutdown();
}

TEST(Tcp, ConcurrentClients) {
  Service service(small_config());
  TcpServer tcp(service, TcpOptions{});
  tcp.start();
  constexpr int kClients = 6;
  std::vector<std::future<std::string>> replies;
  replies.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    replies.push_back(std::async(std::launch::async, [&tcp, i] {
      Client client("127.0.0.1", tcp.port());
      return client.request(simulate_line(20, 1 + (i % 2)));
    }));
  }
  std::set<std::string> distinct;
  for (auto& reply : replies) distinct.insert(reply.get());
  EXPECT_EQ(distinct.size(), 2u);  // one reply per seed, shared bytes
  tcp.stop();
  service.shutdown();
}

TEST(Tcp, StopAfterEarlierClientDisconnects) {
  // Regression: deregistering a closed connection used to erase every fd
  // registered after it, so stop() never shut later connections down and
  // hung forever joining their recv()-blocked threads.
  Service service(small_config());
  TcpServer tcp(service, TcpOptions{});
  tcp.start();
  auto first = std::make_unique<Client>("127.0.0.1", tcp.port());
  Client second("127.0.0.1", tcp.port());  // accepted after `first`
  EXPECT_EQ(first->request("{\"op\":\"ping\"}"),
            "{\"op\":\"ping\",\"status\":\"ok\"}");
  first.reset();  // disconnect while `second` stays connected and idle
  // Give the server's connection thread time to observe the EOF and
  // deregister; the bug triggers only once that cleanup has run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(second.request("{\"op\":\"ping\"}"),
            "{\"op\":\"ping\",\"status\":\"ok\"}");
  tcp.stop();  // must shut `second`'s socket down and return, not hang
  service.shutdown();
}

TEST(Tcp, OversizedLineGetsTypedError) {
  Service service(small_config());
  TcpOptions options;
  options.max_line_bytes = 128;
  TcpServer tcp(service, options);
  tcp.start();
  Client client("127.0.0.1", tcp.port());
  const std::string reply =
      client.request(simulate_line(10, 1) + std::string(200, ' '));
  EXPECT_TRUE(is_error(reply, "oversized"));
  tcp.stop();
  service.shutdown();
}

TEST(Tcp, DeeplyNestedLineGetsTypedErrorAndServiceKeepsServing) {
  // Regression: 60 000 '[' fit under the default 64 KiB line cap and used
  // to overflow the recursive JSON parser's stack, killing the daemon.
  Service service(small_config());
  TcpServer tcp(service, TcpOptions{});
  tcp.start();
  Client client("127.0.0.1", tcp.port());
  EXPECT_TRUE(is_error(client.request(std::string(60000, '[')),
                       "bad_request"));
  EXPECT_EQ(client.request("{\"op\":\"ping\"}"),
            "{\"op\":\"ping\",\"status\":\"ok\"}");
  EXPECT_NE(client.request(simulate_line(10, 1)).find("\"status\":\"ok\""),
            std::string::npos);
  tcp.stop();
  service.shutdown();
}

}  // namespace
}  // namespace ctesim::server
