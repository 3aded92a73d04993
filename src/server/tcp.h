// TCP transport for the capacity-planning service: a listener thread
// accepts connections on 127.0.0.1 (or a given address) and spawns one
// thread per connection that reads newline-delimited request lines, hands
// them to Service::handle() and writes the reply line back. A line longer
// than max_line_bytes is answered with a typed "oversized" error and the
// connection is closed (the framing cannot be trusted past that point).
//
// Port 0 binds an ephemeral port; port() reports the actual one (tests and
// the CI daemon steps use this to avoid collisions).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace ctesim::server {

class Service;

struct TcpOptions {
  std::string bind_address = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral, see TcpServer::port()
  std::size_t max_line_bytes = 1 << 16;
};

class TcpServer {
 public:
  /// Binds and listens immediately (throws std::runtime_error on failure);
  /// call start() to begin accepting. `service` must outlive the server.
  TcpServer(Service& service, const TcpOptions& options);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// The port actually bound (resolves port 0).
  int port() const { return port_; }

  void start();

  /// Stop accepting, shut down live connections, join all threads.
  /// Idempotent. Does not shut the Service down.
  void stop() CTESIM_EXCLUDES(conn_mutex_);

 private:
  void accept_loop() CTESIM_EXCLUDES(conn_mutex_);
  void serve_connection(std::uint64_t id, int fd)
      CTESIM_EXCLUDES(conn_mutex_);
  /// Join connection threads that have announced completion (accept loop
  /// housekeeping, and final sweep in stop()).
  void reap_finished() CTESIM_EXCLUDES(conn_mutex_);

  Service& service_;
  const TcpOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  util::Mutex conn_mutex_;
  /// Live sockets, shutdown() by stop().
  std::vector<int> conn_fds_ CTESIM_GUARDED_BY(conn_mutex_);
  std::uint64_t next_conn_id_ CTESIM_GUARDED_BY(conn_mutex_) = 0;
  std::map<std::uint64_t, std::thread> conn_threads_
      CTESIM_GUARDED_BY(conn_mutex_);
  /// Done, awaiting join.
  std::vector<std::uint64_t> finished_ids_ CTESIM_GUARDED_BY(conn_mutex_);
};

}  // namespace ctesim::server
