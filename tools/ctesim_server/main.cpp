// ctesim_server: run the capacity-planning service as a standalone daemon.
//
//   ctesim_server --port 0 --port-file /tmp/port --workers 4 &
//   ctesim_client --port $(cat /tmp/port) --machine cte-arm --jobs 500
//
// --port 0 binds an ephemeral port; --port-file publishes the bound port so
// scripts (and CI) can find it. SIGINT/SIGTERM shut the server down
// cleanly: in-flight simulations finish, queued requests get a
// "shutting_down" reply, and with --trace a merged Chrome trace is written.
#include <sys/select.h>

#include <csignal>
#include <cstdio>
#include <fstream>

#include "server/service.h"
#include "server/tcp.h"
#include "util/cli.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  std::int64_t port = 0;
  std::string port_file;
  std::int64_t workers = 4;
  std::int64_t queue_capacity = 32;
  std::int64_t cache = 256;
  std::string policy = "easy";
  std::string trace_path;

  ctesim::Cli cli("ctesim_server",
                  "Serve what-if capacity-planning requests over TCP "
                  "(line-delimited JSON, see docs/SERVER.md).");
  cli.option("port", &port, "TCP port to listen on (0 = ephemeral)")
      .option("port-file", &port_file,
              "write the bound port number to this file")
      .option("workers", &workers, "simulation worker threads")
      .option("queue-capacity", &queue_capacity,
              "max queued requests before shedding with 'overloaded'")
      .option("cache", &cache, "result-cache capacity in replies (0 = off)")
      .option("policy", &policy, "admission queue policy: easy | fcfs")
      .option("trace", &trace_path,
              "write a merged Chrome trace here on shutdown");
  if (!cli.parse(argc, argv)) return cli.exit_status();

  if (workers < 1 || workers > 256) {
    std::fprintf(stderr, "ctesim_server: --workers must be in [1,256]\n");
    return 1;
  }
  if (queue_capacity < 0 || port < 0 || port > 65535 || cache < 0) {
    std::fprintf(stderr, "ctesim_server: bad --queue-capacity/--port/--cache\n");
    return 1;
  }
  ctesim::server::ServiceConfig config;
  config.workers = static_cast<int>(workers);
  config.queue_capacity = static_cast<int>(queue_capacity);
  config.cache_capacity = static_cast<std::size_t>(cache);
  config.tracing = !trace_path.empty();
  if (policy == "easy") {
    config.admission_policy = ctesim::batch::QueuePolicy::kEasyBackfill;
  } else if (policy == "fcfs") {
    config.admission_policy = ctesim::batch::QueuePolicy::kFcfs;
  } else {
    std::fprintf(stderr, "ctesim_server: --policy must be easy or fcfs\n");
    return 1;
  }

  ctesim::server::Service service(config);
  ctesim::server::TcpOptions tcp_options;
  tcp_options.port = static_cast<int>(port);
  tcp_options.max_line_bytes = config.max_request_bytes;
  ctesim::server::TcpServer tcp(service, tcp_options);

  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      std::fprintf(stderr, "ctesim_server: cannot write %s\n",
                   port_file.c_str());
      return 1;
    }
    out << tcp.port() << "\n";
  }
  std::fprintf(stderr, "ctesim_server: listening on %s:%d (%lld workers)\n",
               tcp_options.bind_address.c_str(), tcp.port(),
               static_cast<long long>(workers));

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  tcp.start();
  while (!g_stop) {
    // Idle heartbeat; all work happens on the TCP/worker threads.
    sigset_t empty;
    sigemptyset(&empty);
    timespec tick{0, 200'000'000};
    ::pselect(0, nullptr, nullptr, nullptr, &tick, &empty);
  }

  std::fprintf(stderr, "ctesim_server: shutting down\n");
  tcp.stop();
  service.shutdown();
  if (!trace_path.empty()) {
    service.export_trace(trace_path);
    std::fprintf(stderr, "ctesim_server: trace written to %s\n",
                 trace_path.c_str());
  }
  return 0;
}
