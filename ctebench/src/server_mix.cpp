// server_mix: open loop against the in-process what-if server
// (server::Service + TcpServer, 2 workers) through 2 client connections.
//
// Poisson `simulate` arrivals at kRatePerS. 40 % repeat an earlier
// (machine, workload, seed) and are cache hits (reads); the rest are new
// seeds of 50-200-job cte-arm studies of 1-8-node jobs that run
// batch::run_cluster and insert into the cache (writes). Each request is
// timed from its due time, so a stalled connection charges the wait to the
// requests behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/configs.h"
#include "batch/cluster.h"
#include "batch/metrics.h"
#include "batch/runtime.h"
#include "batch/workload.h"
#include "common.h"
#include "power/power_model.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "server/tcp.h"
#include "trace/chrome.h"
#include "trace/recorder.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/rng.h"

namespace ctebench {
namespace {

using namespace ctesim;

/// Arrival rate, requests/s: about half the measured cache-miss capacity
/// of the 2 workers (~25 misses/s on a 4-vCPU x86 host, RelWithDebInfo).
constexpr double kRatePerS = 12.0;
/// Every request whose index crosses a multiple of 1/kRepeatShare repeats an
/// earlier one (40 %): fewer than half, so the median request stays a miss
/// rather than flipping between the hit and miss modes from run to run.
constexpr double kRepeatShare = 0.4;
/// Repeats pick among this many most recent new requests, so the original
/// is still in the 256-entry cache.
constexpr int kRepeatWindow = 64;
/// Mean job gap and largest job of every study: light load on the 192
/// nodes (about 8 % utilisation), and misses cheap enough that one run
/// sends a few hundred requests.
constexpr double kStudyGapS = 60.0;
constexpr int kStudyMaxNodes = 8;
/// Study sizes step through 50..200 jobs in a fixed order (61 is coprime
/// with the 151 sizes), so every run sees the same mix of miss costs.
constexpr int kMinJobs = 50;
constexpr int kJobSizes = 151;
constexpr int kSizeStride = 61;
/// About 2.5 times the median miss's service time.
constexpr double kSloSeconds = 0.25;
/// Server start-ups timed for setup_s (about 2.5 ms each).
constexpr int kServerSetups = 101;

struct Request {
  double due_s = 0.0;
  std::string line;
  int original = -1;  ///< index of the request this one repeats; -1 = new
  int jobs = 0;
  std::uint64_t seed = 0;
};

std::string simulate_line(int jobs, std::uint64_t seed) {
  return "{\"op\":\"simulate\",\"machine\":\"cte-arm\",\"jobs\":" +
         std::to_string(jobs) + ",\"mean_interarrival_s\":" +
         json::number(kStudyGapS) +
         ",\"max_nodes\":" + std::to_string(kStudyMaxNodes) +
         ",\"seed\":" + std::to_string(seed) + "}";
}

/// The arrival schedule of one phase: a Poisson process at kRatePerS
/// conditioned on its expected count, i.e. that many uniform arrival times
/// in [0, seconds), so every run of a given length sends the same number of
/// requests. `first_seed` keeps the study seeds of different phases apart.
std::vector<Request> schedule(std::uint64_t seed, double seconds,
                              std::uint64_t first_seed) {
  Rng rng(hash_combine(kFnvOffsetBasis, seed));
  const auto count = static_cast<std::size_t>(
      std::max(1.0, std::floor(kRatePerS * seconds)));
  std::vector<double> due;
  for (std::size_t i = 0; i < count; ++i) {
    due.push_back(rng.uniform(0.0, seconds));
  }
  std::sort(due.begin(), due.end());
  std::vector<Request> out;
  std::vector<int> fresh;
  std::uint64_t next_seed = first_seed;
  for (const double t : due) {
    Request r;
    r.due_s = t;
    const auto n_req = static_cast<double>(out.size());
    const bool repeat = std::floor((n_req + 1.0) * kRepeatShare) >
                        std::floor(n_req * kRepeatShare);
    if (repeat && !fresh.empty()) {
      const auto n = static_cast<std::int64_t>(fresh.size());
      const int orig = fresh[static_cast<std::size_t>(rng.uniform_int(
          std::max<std::int64_t>(0, n - kRepeatWindow), n - 1))];
      r.original = orig;
      r.jobs = out[static_cast<std::size_t>(orig)].jobs;
      r.seed = out[static_cast<std::size_t>(orig)].seed;
      r.line = out[static_cast<std::size_t>(orig)].line;
    } else {
      r.jobs = kMinJobs + static_cast<int>((fresh.size() * kSizeStride) %
                                           kJobSizes);
      r.seed = next_seed++;
      r.line = simulate_line(r.jobs, r.seed);
      fresh.push_back(static_cast<int>(out.size()));
    }
    out.push_back(std::move(r));
  }
  return out;
}

struct Server {
  std::unique_ptr<server::Service> service;
  std::unique_ptr<server::TcpServer> tcp;
  std::vector<std::unique_ptr<server::Client>> clients;

  Server() {
    server::ServiceConfig config;
    config.workers = kServerWorkers;
    service = std::make_unique<server::Service>(config);
    tcp = std::make_unique<server::TcpServer>(*service, server::TcpOptions{});
    tcp->start();
    for (int c = 0; c < kClientConnections; ++c) {
      clients.push_back(
          std::make_unique<server::Client>("127.0.0.1", tcp->port()));
    }
    // The first simulate resolves (builds and validates) the machine.
    const std::string reply = clients[0]->request(simulate_line(1, 0));
    if (reply.find("\"status\":\"ok\"") == std::string::npos) {
      throw std::runtime_error("warm-up request failed: " + reply);
    }
  }
  ~Server() {
    clients.clear();
    tcp->stop();
    service->shutdown();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
};

struct Phase {
  std::vector<double> latency_s;
  std::vector<double> late_s;
  std::vector<std::string> replies;
  /// A traced phase's spans, one track per client connection; null when
  /// untraced.
  std::unique_ptr<trace::Recorder> spans;
};

/// Send `reqs` on their schedule over every client connection.
Phase run_phase(Server& server, const std::vector<Request>& reqs,
                bool traced) {
  Phase ph;
  ph.latency_s.assign(reqs.size(), 0.0);
  ph.late_s.assign(reqs.size(), 0.0);
  ph.replies.assign(reqs.size(), std::string());
  std::atomic<std::size_t> next{0};
  // Recorders are not thread-safe: one per client thread, merged below.
  std::vector<std::unique_ptr<trace::Recorder>> logs;
  for (std::size_t c = 0; traced && c < server.clients.size(); ++c) {
    logs.push_back(std::make_unique<trace::Recorder>(true));
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < server.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      server::Client& client = *server.clients[c];
      trace::Recorder* rec = traced ? logs[c].get() : nullptr;
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= reqs.size()) break;
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(reqs[i].due_s));
        std::this_thread::sleep_until(due);
        const auto sent = Clock::now();
        {
          Scoped s(rec,
                   reqs[i].original < 0 ? "server.miss_request"
                                        : "server.hit_request",
                   i, trace::Track::worker(static_cast<int>(c)));
          try {
            ph.replies[i] = client.request(reqs[i].line);
          } catch (const std::exception& e) {
            ph.replies[i] = std::string("transport error: ") + e.what();
          }
        }
        ph.latency_s[i] = seconds_between(due, Clock::now());
        ph.late_s[i] = seconds_between(due, sent);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (traced) {
    ph.spans = std::make_unique<trace::Recorder>(true);
    std::vector<const trace::Recorder*> parts;
    for (const auto& log : logs) parts.push_back(log.get());
    ph.spans->merge_from(parts);
  }
  return ph;
}

/// Reply checks; returns per-request ok flags.
std::vector<bool> check_phase(const std::vector<Request>& reqs,
                              const Phase& ph, Result& result) {
  std::vector<bool> ok(reqs.size(), true);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::string why;
    try {
      const json::Value doc = json::parse(ph.replies[i]);
      const json::Value* status = doc.find("status");
      if (!status || status->string != "ok") why = "status is not ok";
    } catch (const std::exception& e) {
      why = std::string("reply does not parse: ") + e.what();
    }
    if (why.empty() && reqs[i].original >= 0 &&
        ph.replies[i] !=
            ph.replies[static_cast<std::size_t>(reqs[i].original)]) {
      why = "cache-hit reply differs from its miss";
    }
    if (!why.empty()) {
      ok[i] = false;
      result.fail("request " + std::to_string(i) + ": " + why + ": " +
                  ph.replies[i].substr(0, 160));
    }
  }
  return ok;
}

std::vector<double> pick(const std::vector<double>& v,
                         const std::vector<Request>& reqs, bool hits) {
  std::vector<double> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if ((reqs[i].original >= 0) == hits) out.push_back(v[i]);
  }
  return out;
}

/// What a worker does for a miss, in process: model, stream, study.
double replay_miss_seconds(const arch::MachineModel& machine,
                           const Request& r) {
  const auto t0 = Clock::now();
  const batch::RuntimeModel model(machine);
  batch::WorkloadConfig w;
  w.num_jobs = r.jobs;
  w.mean_interarrival_s = kStudyGapS;
  w.max_nodes = kStudyMaxNodes;
  const auto jobs = batch::generate(w, model, r.seed);
  batch::ClusterOptions options;
  options.seed = r.seed;
  const power::PowerModel power = power::default_power(machine);
  options.power = &power;
  const auto run = batch::run_cluster(model, jobs, options);
  const auto m = batch::summarize(run, machine.num_nodes);
  if (m.jobs != r.jobs) throw std::runtime_error("miss replay lost jobs");
  return seconds_since(t0);
}

}  // namespace

// Why: JSON, protocol, cache, admission; many short light batch studies.
Result run_server_mix(const Args& args) {
  Result result;
  // Set-up is timed several times; tearing the previous server down is not
  // part of it.
  std::unique_ptr<Server> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kServerSetups; ++rep) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<Server>();
    setup_s.push_back(seconds_since(t0));
  }
  result.add("setup_s", median(setup_s), "s");

  // The traced run splits its time: an untraced phase, then a traced one
  // on other seeds, so the tracing overhead is measured in one process.
  const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
  const auto reqs = schedule(args.seed, phase_s, 1);
  Phase ph = run_phase(*server, reqs, false);
  std::vector<bool> ok = check_phase(reqs, ph, result);
  add_op_metrics(result, ph.latency_s, ok, kSloSeconds);
  result.attempted = static_cast<std::int64_t>(reqs.size());
  for (bool o : ok) result.failed += o ? 0 : 1;
  result.digest = kFnvOffsetBasis;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    result.digest = hash64(ph.replies[i], hash_combine(result.digest, i));
  }
  print_line("latency_p50_ms", median(ph.latency_s) * 1e3, "ms");
  std::printf("  requests: %zu (%zu repeats) at %.4g/s over %.4g s\n",
              reqs.size(), pick(ph.latency_s, reqs, true).size(), kRatePerS,
              phase_s);

  if (args.trace) {
    // A fresh server for the traced phase, so its Service::stats() differ
    // from the counts at its start by this phase's requests alone.
    server.reset();
    server = std::make_unique<Server>();
    const server::ServiceStats before = server->service->stats();
    const auto treqs = schedule(args.seed + 0x5eed, phase_s, 1u << 30);
    Phase tph = run_phase(*server, treqs, true);
    const server::ServiceStats st = server->service->stats();
    const std::vector<bool> tok = check_phase(treqs, tph, result);
    result.attempted += static_cast<std::int64_t>(treqs.size());
    for (bool o : tok) result.failed += o ? 0 : 1;
    double q = 1.0;
    result.add("trace.overhead_study_ms",
               (median(tph.latency_s) - median(ph.latency_s)) * 1e3, "ms");
    result.add("trace.overhead_p99_ms",
               (tail(tph.latency_s, &q) - tail(ph.latency_s, &q)) * 1e3,
               "ms");

    // server.parse_us: the protocol parser over this phase's lines.
    std::vector<double> per_line;
    for (int rep = 0; rep < 20; ++rep) {
      const auto t0 = Clock::now();
      for (const auto& r : treqs) {
        if (server::parse_request(r.line).op != server::Op::kSimulate) {
          throw std::runtime_error("request line parsed as the wrong op");
        }
      }
      per_line.push_back(seconds_since(t0) * 1e6 /
                         static_cast<double>(treqs.size()));
    }
    result.add("server.parse_us", median(per_line), "us");

    // Counts over the traced phase. max_queue_depth cannot be differenced:
    // it is the server's peak, whose only other request was its warm-up.
    const auto hits = static_cast<double>(st.cache.hits - before.cache.hits);
    const auto misses =
        static_cast<double>(st.cache.misses - before.cache.misses);
    result.add("server.hit_ratio", hits / (hits + misses), "share");
    result.add("server.max_queue_depth",
               static_cast<double>(st.max_queue_depth), "count");
    result.add("server.shed", static_cast<double>(st.shed - before.shed),
               "count");
    result.add("server.timeouts",
               static_cast<double>(st.timeouts - before.timeouts), "count");
    result.add("server.coalesced",
               static_cast<double>(st.coalesced - before.coalesced),
               "count");
    const auto hit_lat = pick(tph.latency_s, treqs, true);
    const auto miss_lat = pick(tph.latency_s, treqs, false);
    result.add("server.hit_latency_ms_p50", median(hit_lat) * 1e3, "ms");
    result.add("server.miss_latency_ms_p50", median(miss_lat) * 1e3, "ms");

    // Queue wait: miss latency minus the same spec replayed in process.
    const arch::MachineModel cte = arch::cte_arm();
    std::vector<double> wait_ms, service_s;
    for (std::size_t i = 0; i < treqs.size() && service_s.size() < 12; ++i) {
      if (treqs[i].original >= 0) continue;
      const double s = replay_miss_seconds(cte, treqs[i]);
      service_s.push_back(s);
      wait_ms.push_back((tph.latency_s[i] - s) * 1e3);
    }
    result.add("server.queue_wait_ms_p50", median(wait_ms), "ms");
    std::printf("  miss service %.4g s median in process -> capacity of %d "
                "workers ~%.4g misses/s\n",
                median(service_s), kServerWorkers,
                kServerWorkers / median(service_s));

    // TCP overhead: the same hit line over the wire vs Service::handle.
    std::vector<double> tcp_us, inproc_us;
    for (std::size_t i = 0; i < treqs.size() && tcp_us.size() < 64; ++i) {
      if (treqs[i].original < 0) continue;
      const auto t0 = Clock::now();
      const std::string a = server->clients[0]->request(treqs[i].line);
      tcp_us.push_back(seconds_since(t0) * 1e6);
      const auto t1 = Clock::now();
      const std::string b = server->service->handle(treqs[i].line);
      inproc_us.push_back(seconds_since(t1) * 1e6);
      if (a != b) result.fail("hit over TCP differs from in-process reply");
    }
    result.add("server.tcp_overhead_us", median(tcp_us) - median(inproc_us),
               "us");
    result.add("loadgen.late_ms_p99", tail(tph.late_s, &q) * 1e3, "ms");
    if (!args.spans_path.empty()) {
      trace::write_chrome_trace(*tph.spans, args.spans_path);
    }
  }
  return result;
}

}  // namespace ctebench
