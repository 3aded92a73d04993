// Server throughput: requests/sec of the capacity-planning service over
// its real TCP path, and what the result cache buys (docs/SERVER.md).
//
// An in-process daemon (Service + TcpServer) receives two waves of
// simulate requests from concurrent client connections:
//   * cold wave — every request a distinct seed, so every one runs a
//     full cluster simulation;
//   * warm wave — the same requests again, so every one is a cache hit
//     answered from stored bytes.
// The report is requests/sec per wave plus the cache-hit speedup, with the
// server's own stats line as a cross-check (hits == warm-wave requests).
//
// Wall-clock timing is the measurement here, not simulation state; bench/
// is outside the simulation determinism envelope (see ctesim_lint).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "report/table.h"
#include "server/client.h"
#include "server/service.h"
#include "server/tcp.h"

using namespace ctesim;

namespace {

std::string simulate_line(int jobs, int seed) {
  return "{\"op\":\"simulate\",\"machine\":\"cte-arm\",\"jobs\":" +
         std::to_string(jobs) + ",\"seed\":" + std::to_string(seed) + "}";
}

/// Fire `requests` across `clients` concurrent connections; returns
/// elapsed seconds. Seeds are round-robin over `distinct_seeds`.
double run_wave(int port, int clients, int requests, int jobs,
                int distinct_seeds) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([=] {
      server::Client client("127.0.0.1", port);
      for (int r = c; r < requests; r += clients) {
        client.request(simulate_line(jobs, 1 + (r % distinct_seeds)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t workers = 4;
  std::int64_t clients = 4;
  std::int64_t requests = 32;
  std::int64_t jobs = 150;
  bench::Harness h("server_throughput",
                   "requests/sec and cache-hit speedup of the what-if server");
  h.cli()
      .option("workers", &workers, "server worker threads")
      .option("clients", &clients, "concurrent client connections")
      .option("requests", &requests, "requests per wave")
      .option("jobs", &jobs, "workload size per request");
  if (!h.parse(argc, argv)) return h.exit_status();
  if (workers < 1 || clients < 1 || requests < 1 || jobs < 1) {
    std::fprintf(stderr, "server_throughput: all options must be >= 1\n");
    return 1;
  }
  h.banner("Server throughput",
           "concurrent what-if serving with result caching");

  server::ServiceConfig config;
  config.workers = static_cast<int>(workers);
  config.queue_capacity = static_cast<int>(requests);  // no shedding here
  config.cache_capacity = static_cast<std::size_t>(requests);
  server::Service service(config);
  server::TcpServer tcp(service, server::TcpOptions{});
  tcp.start();

  const int distinct = static_cast<int>(requests);
  const double cold_s = run_wave(tcp.port(), static_cast<int>(clients),
                                 static_cast<int>(requests),
                                 static_cast<int>(jobs), distinct);
  const double warm_s = run_wave(tcp.port(), static_cast<int>(clients),
                                 static_cast<int>(requests),
                                 static_cast<int>(jobs), distinct);

  const auto stats = service.stats();
  tcp.stop();
  service.shutdown();

  const double cold_rps = static_cast<double>(requests) / cold_s;
  const double warm_rps = static_cast<double>(requests) / warm_s;
  std::printf("workers=%lld clients=%lld requests/wave=%lld jobs=%lld\n",
              static_cast<long long>(workers),
              static_cast<long long>(clients),
              static_cast<long long>(requests),
              static_cast<long long>(jobs));
  std::printf("cold wave: %8.2f req/s  (%.3f s, every request simulated)\n",
              cold_rps, cold_s);
  std::printf("warm wave: %8.2f req/s  (%.3f s, every request a cache hit)\n",
              warm_rps, warm_s);
  std::printf("cache-hit speedup: %.1fx   server stats: hits=%llu "
              "misses=%llu completed=%llu\n",
              cold_s / warm_s,
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.misses),
              static_cast<unsigned long long>(stats.completed));
  if (stats.cache.hits != static_cast<std::uint64_t>(requests)) {
    std::fprintf(stderr,
                 "server_throughput: expected %lld warm hits, saw %llu\n",
                 static_cast<long long>(requests),
                 static_cast<unsigned long long>(stats.cache.hits));
    return 1;
  }
  h.open_csv({"wave", "requests", "clients", "workers", "jobs", "elapsed_s",
              "req_per_s"});
  h.csv_row({"cold", std::to_string(requests), std::to_string(clients),
             std::to_string(workers), std::to_string(jobs),
             report::fixed(cold_s, 4), report::fixed(cold_rps, 2)});
  h.csv_row({"warm", std::to_string(requests), std::to_string(clients),
             std::to_string(workers), std::to_string(jobs),
             report::fixed(warm_s, 4), report::fixed(warm_rps, 2)});
  return 0;
}
