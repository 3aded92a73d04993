// ctesim_client: fire requests at a running ctesim_server and print the
// reply lines to stdout (one per line, exactly as received — byte-identical
// across cache hits, which CI checks with `cmp`).
//
//   ctesim_client --port 4000 --machine cte-arm --jobs 500 --seed 7
//   ctesim_client --port 4000 --request '{"op":"ping"}'
//   ctesim_client --port 4000 --stats
#include <cstdio>
#include <iostream>
#include <string>

#include "server/client.h"
#include "util/cli.h"
#include "util/json.h"

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::int64_t port = 0;
  std::string request;
  bool stats = false;
  bool ping = false;
  std::string machine = "cte-arm";
  std::int64_t jobs = 200;
  std::int64_t seed = 1;
  std::string queue = "easy";
  std::string placement = "contiguous";
  double deadline_ms = 0.0;
  std::int64_t repeat = 1;

  ctesim::Cli cli("ctesim_client",
                  "Send requests to a ctesim_server (see docs/SERVER.md).");
  cli.option("host", &host, "server address")
      .option("port", &port, "server port (required)")
      .option("request", &request,
              "send this raw JSON request line instead of building one")
      .flag("stats", &stats, "send a stats request")
      .flag("ping", &ping, "send a ping request")
      .option("machine", &machine, "machine config name for simulate")
      .option("jobs", &jobs, "workload size for simulate")
      .option("seed", &seed, "workload seed for simulate")
      .option("queue", &queue, "simulated queue policy: easy | fcfs")
      .option("placement", &placement,
              "placement policy: contiguous | linear | random")
      .option("deadline-ms", &deadline_ms,
              "queue-wait deadline in ms (0 = none)")
      .option("repeat", &repeat, "send the request this many times");
  if (!cli.parse(argc, argv)) return cli.exit_status();

  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "ctesim_client: --port is required (1..65535)\n");
    return 1;
  }
  if (repeat < 1) {
    std::fprintf(stderr, "ctesim_client: --repeat must be >= 1\n");
    return 1;
  }

  std::string line = request;
  if (line.empty()) {
    if (ping) {
      line = "{\"op\":\"ping\"}";
    } else if (stats) {
      line = "{\"op\":\"stats\"}";
    } else {
      line = "{\"op\":\"simulate\",\"machine\":\"" +
             ctesim::json::escape(machine) +
             "\",\"jobs\":" + std::to_string(jobs) +
             ",\"seed\":" + std::to_string(seed) + ",\"queue\":\"" + queue +
             "\",\"placement\":\"" + placement + "\"";
      if (deadline_ms > 0.0) {
        line += ",\"deadline_ms\":" + ctesim::json::number(deadline_ms);
      }
      line += "}";
    }
  }

  try {
    ctesim::server::Client client(host, static_cast<int>(port));
    for (std::int64_t i = 0; i < repeat; ++i) {
      std::cout << client.request(line) << "\n";
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ctesim_client: %s\n", e.what());
    return 1;
  }
  return 0;
}
