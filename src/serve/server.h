// modbd's serving core: a thread-per-connection TCP server that holds a
// modb::Db resident and executes QueryRequests through it, plus the
// admission controller that bounds the server-wide query-thread budget.
//
// Admission control: every query costs the worker count its
// ParallelOptions resolve to. Costs are debited from a fixed budget; a
// query that does not fit waits in a bounded FIFO queue, and when the
// queue is full — or the query could never fit — it is rejected with a
// typed kResourceExhausted, which the wire layer round-trips to the
// client. Overload therefore degrades into fast typed rejections, never
// unbounded queueing, hangs, or crashes.
//
// Graceful shutdown: Stop() stops accepting, half-closes every open
// connection (so idle clients see EOF and per-connection loops exit
// after their current request), then joins every connection thread —
// in-flight and admission-queued queries run to completion and their
// replies are delivered before Stop() returns.
//
// Observability: requests, rejections, errors, and per-request wall
// times go to the process-global obs::Metrics registry; an HTTP
// "GET /metrics" on the same port (sniffed from the first bytes of a
// connection) returns the registry's JSON snapshot.

#ifndef MODB_SERVE_SERVER_H_
#define MODB_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/status.h"
#include "db/modb.h"

namespace modb {
namespace serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back via Server::port().
  int port = 0;
  /// Server-wide worker budget queries are admitted against. Must be in
  /// [1, kMaxQueryThreads].
  std::int64_t thread_budget = 64;
  /// Queries allowed to wait for budget before rejections start.
  std::size_t queue_capacity = 64;
  /// Whole-read deadline while waiting for a frame to START (the
  /// between-frames sniff/header bytes). The clock is not reset per
  /// byte, so a slow-loris peer trickling header bytes is reaped just
  /// like a silent one — the thread returns to the budget and the
  /// connection closes. <= 0 disables.
  int idle_timeout_ms = 30000;
  /// Deadline for mid-frame payload reads and reply writes (the peer
  /// already committed to a frame, so this can be much tighter than the
  /// idle deadline). <= 0 disables.
  int io_timeout_ms = 10000;
};

/// The query-thread budget gate. Exposed (rather than buried in the
/// server) so tests can drive overload deterministically without
/// sockets.
class AdmissionController {
 public:
  AdmissionController(std::int64_t budget, std::size_t queue_capacity);

  /// Debits `cost` workers, waiting in FIFO order while the budget is
  /// exhausted. ResourceExhausted when `cost` exceeds the whole budget
  /// (can never fit), the wait queue is full, or — for a request
  /// carrying a deadline (deadline_remaining_ns >= 0) that would have
  /// to queue — the predicted queue wait (EWMA of recent budget hold
  /// times x queue depth) already exceeds the remaining deadline:
  /// queueing doomed work would only delay live requests behind it.
  /// InvalidArgument for a non-positive cost.
  Status Acquire(std::int64_t cost, std::int64_t deadline_remaining_ns = -1);
  /// Credits `cost` back and wakes the longest-waiting query. hold_ns
  /// (> 0: how long the budget was held) feeds the EWMA behind the
  /// deadline-aware rejection above.
  void Release(std::int64_t cost, std::uint64_t hold_ns = 0);

  std::int64_t budget() const { return budget_; }
  std::int64_t in_use() const;
  std::size_t queued() const;
  std::uint64_t rejected() const;
  /// Rejections caused specifically by the predicted-wait-vs-deadline
  /// test (also counted in rejected()).
  std::uint64_t deadline_rejects() const;

 private:
  const std::int64_t budget_;
  const std::size_t queue_capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::int64_t in_use_ = 0;
  std::size_t queued_ = 0;
  /// FIFO fairness: tickets admit waiters in arrival order, so a cheap
  /// query cannot starve an expensive one that arrived first.
  std::uint64_t next_ticket_ = 0;
  std::uint64_t serving_ticket_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t deadline_rejects_ = 0;
  /// EWMA (alpha = 1/8) of budget hold times, the queue-wait predictor.
  std::uint64_t avg_hold_ns_ = 0;
};

/// The server. Owns its accept and connection threads; does NOT own the
/// Db (the embedder does — modbd's main builds one, registers
/// relations, then starts a Server over it).
class Server {
 public:
  /// `db` must outlive the server.
  Server(Db* db, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts accepting. InvalidArgument if the
  /// options are out of range (thread_budget vs kMaxQueryThreads).
  Status Start();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

  /// Graceful shutdown; idempotent. Returns after every connection
  /// thread has drained and joined.
  void Stop();

  const AdmissionController& admission() const { return admission_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);
  /// Handles one already-sniffed HTTP connection (metrics endpoint).
  void ServeHttp(int fd, const std::string& sniffed);
  /// Decodes, admits, executes, and encodes one query payload: the
  /// reply payload is appended to `frame`, a started frame buffer (see
  /// StartFrame). `version` is the frame header's protocol version — it
  /// selects the payload decoder (the caller seals the reply frame with
  /// it, so each client is answered in its own version). Fails only if
  /// not even an error reply could be encoded.
  Status HandleQuery(std::string_view payload, std::uint8_t version,
                     std::string* frame);
  /// Decodes, admits, applies, and acks one mutation payload (reply
  /// appended to `frame` as above).
  Status HandleMutation(std::string_view payload, std::uint8_t version,
                        std::string* frame);

  Db* const db_;
  const ServerOptions options_;
  AdmissionController admission_;

  int listen_fd_ = -1;
  int port_ = -1;
  std::thread accept_thread_;

  std::mutex mu_;
  bool started_ = false;
  bool stopping_ = false;
  std::vector<std::thread> connections_;
  std::vector<int> open_fds_;
};

}  // namespace serve
}  // namespace modb

#endif  // MODB_SERVE_SERVER_H_
