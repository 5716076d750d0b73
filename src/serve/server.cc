#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "db/parallel.h"
#include "obs/metrics.h"
#include "serve/net.h"
#include "serve/wire.h"

namespace modb {
namespace serve {
namespace {

// num_threads travels as i64; fold it into int range without changing
// whether ValidateParallelOptions accepts it (every value outside
// [-2^30, 2^30] is far outside [anything, kMaxQueryThreads] anyway).
int ClampThreads(std::int64_t n) {
  constexpr std::int64_t kLimit = std::int64_t{1} << 30;
  return int(std::clamp(n, -kLimit, kLimit));
}

std::string HttpResponse(const std::string& status_line,
                         const std::string& body) {
  return "HTTP/1.0 " + status_line +
         "\r\nContent-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
         body;
}

}  // namespace

AdmissionController::AdmissionController(std::int64_t budget,
                                         std::size_t queue_capacity)
    : budget_(budget), queue_capacity_(queue_capacity) {}

Status AdmissionController::Acquire(std::int64_t cost,
                                    std::int64_t deadline_remaining_ns) {
  if (cost <= 0) {
    return Status::InvalidArgument("admission cost must be positive, got " +
                                   std::to_string(cost));
  }
  std::unique_lock lock(mu_);
  if (cost > budget_) {
    ++rejected_;
    return Status::ResourceExhausted(
        "query needs " + std::to_string(cost) +
        " worker threads but the server budget is " +
        std::to_string(budget_) + " (lower the request's num_threads)");
  }
  if (in_use_ + cost <= budget_ && queued_ == 0) {
    in_use_ += cost;
    ++next_ticket_;
    ++serving_ticket_;
    return Status::OK();
  }
  if (queued_ >= queue_capacity_) {
    ++rejected_;
    return Status::ResourceExhausted(
        "admission queue is full (" + std::to_string(queue_capacity_) +
        " queries already waiting for the " + std::to_string(budget_) +
        "-thread budget); retry after backoff");
  }
  // Deadline-aware shedding: this request must queue, and the EWMA of
  // recent hold times predicts how long each of the requests ahead of
  // it will keep the budget. If the predicted wait alone already
  // exceeds the remaining deadline, admitting it could only produce a
  // kDeadlineExceeded after wasted queueing — reject now, cheaply, so
  // the queue slot goes to a request that can still make it. (The
  // prediction errs on admission: with no history, avg_hold_ns_ is 0
  // and every deadline passes; a late-admitted request that does blow
  // its deadline is still caught at the first morsel checkpoint.)
  if (deadline_remaining_ns >= 0 && avg_hold_ns_ > 0 &&
      avg_hold_ns_ * std::uint64_t(queued_ + 1) >
          std::uint64_t(deadline_remaining_ns)) {
    ++rejected_;
    ++deadline_rejects_;
    MODB_COUNTER_INC("serve.deadline_rejects");
    return Status::ResourceExhausted(
        "predicted queue wait (" + std::to_string(queued_ + 1) +
        " waiters x ~" + std::to_string(avg_hold_ns_ / 1000000) +
        "ms recent hold time) exceeds the request deadline; retry with "
        "a larger deadline or after backoff");
  }
  const std::uint64_t ticket = next_ticket_++;
  ++queued_;
  cv_.wait(lock, [&] {
    return serving_ticket_ == ticket && in_use_ + cost <= budget_;
  });
  --queued_;
  in_use_ += cost;
  ++serving_ticket_;
  // The next waiter may also fit (e.g. two cheap queries released
  // together); let it re-check.
  cv_.notify_all();
  return Status::OK();
}

void AdmissionController::Release(std::int64_t cost, std::uint64_t hold_ns) {
  {
    std::lock_guard lock(mu_);
    in_use_ -= cost;
    if (hold_ns > 0) {
      avg_hold_ns_ = avg_hold_ns_ == 0 ? hold_ns
                                       : (7 * avg_hold_ns_ + hold_ns) / 8;
    }
  }
  cv_.notify_all();
}

std::int64_t AdmissionController::in_use() const {
  std::lock_guard lock(mu_);
  return in_use_;
}

std::size_t AdmissionController::queued() const {
  std::lock_guard lock(mu_);
  return queued_;
}

std::uint64_t AdmissionController::rejected() const {
  std::lock_guard lock(mu_);
  return rejected_;
}

std::uint64_t AdmissionController::deadline_rejects() const {
  std::lock_guard lock(mu_);
  return deadline_rejects_;
}

Server::Server(Db* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      admission_(options_.thread_budget, options_.queue_capacity) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (options_.thread_budget < 1 ||
      options_.thread_budget > kMaxQueryThreads) {
    return Status::InvalidArgument(
        "ServerOptions.thread_budget = " +
        std::to_string(options_.thread_budget) + " must be in [1, " +
        std::to_string(kMaxQueryThreads) + "] (kMaxQueryThreads)");
  }
  Result<int> fd = ListenTcp(options_.host, options_.port);
  MODB_RETURN_IF_ERROR(fd.status());
  Result<int> port = BoundPort(*fd);
  if (!port.ok()) {
    CloseFd(*fd);
    return port.status();
  }
  listen_fd_ = *fd;
  port_ = *port;
  {
    std::lock_guard lock(mu_);
    started_ = true;
    stopping_ = false;
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  {
    std::lock_guard lock(mu_);
    if (!started_) return;
    started_ = false;  // claim the shutdown; later Stop()s return above
    stopping_ = true;
  }
  // Wake the blocking accept().
  ShutdownFd(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Half-close every open connection: reads drain to EOF so the
  // per-connection loops exit after their current request, while reply
  // writes for in-flight queries still go out.
  {
    std::lock_guard lock(mu_);
    for (int fd : open_fds_) ShutdownReadFd(fd);
  }
  for (std::thread& t : connections_) {
    if (t.joinable()) t.join();
  }
  connections_.clear();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard lock(mu_);
    if (stopping_) {
      if (fd >= 0) CloseFd(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket is gone
    }
    MODB_COUNTER_INC("serve.connections");
    open_fds_.push_back(fd);
    connections_.emplace_back([this, fd] { ServeConnection(fd); });
  }
}

void Server::ServeConnection(int fd) {
  const int idle_ms = options_.idle_timeout_ms > 0 ? options_.idle_timeout_ms
                                                   : -1;
  const int io_ms = options_.io_timeout_ms > 0 ? options_.io_timeout_ms : -1;
  // Counts a deadline expiry and reports whether the status was one.
  // idle expiries (waiting for a frame to start) additionally count as
  // a reaped idle connection — the slow-loris / dead-peer signal.
  auto timed_out = [](const Status& s, bool idle_phase) {
    if (s.code() != StatusCode::kDeadlineExceeded) return false;
    MODB_COUNTER_INC("serve.timeouts");
    if (idle_phase) MODB_COUNTER_INC("serve.idle_reaped");
    return true;
  };
  // Sniff the first bytes: an HTTP GET (the /metrics endpoint) instead
  // of a frame magic diverts the whole connection to the HTTP path.
  char sniff[4];
  Result<bool> got = ReadFullOrEofTimeout(fd, sniff, sizeof sniff, idle_ms);
  if (!got.ok()) (void)timed_out(got.status(), /*idle_phase=*/true);
  if (got.ok() && *got && std::string_view(sniff, 4) == "GET ") {
    ServeHttp(fd, std::string(sniff, 4));
  } else if (got.ok() && *got) {
    // One frame buffer per connection, reused across requests: a reply
    // is encoded straight into it behind its header and leaves in one
    // write, and steady-state replies fault in no fresh pages.
    std::string frame;
    auto send_frame = [&](std::uint8_t version) {
      Status s = SealFrame(FrameType::kReply, version, &frame);
      if (s.ok()) s = WriteFullTimeout(fd, frame.data(), frame.size(), io_ms);
      return s;
    };
    bool first = true;
    for (;;) {
      char header[kFrameHeaderBytes];
      if (first) {
        // The remaining 8 header bytes stay under the idle deadline:
        // the frame has not fully started, and a slow-loris peer
        // trickles exactly these bytes.
        std::memcpy(header, sniff, 4);
        Status s = ReadFullTimeout(fd, header + 4, sizeof header - 4, idle_ms);
        if (!s.ok()) {
          (void)timed_out(s, /*idle_phase=*/true);
          break;
        }
        first = false;
      } else {
        Result<bool> more =
            ReadFullOrEofTimeout(fd, header, sizeof header, idle_ms);
        if (!more.ok()) {
          (void)timed_out(more.status(), /*idle_phase=*/true);
          break;
        }
        if (!*more) break;
      }
      Result<FrameHeader> h =
          DecodeFrameHeader(std::string_view(header, sizeof header));
      if (!h.ok()) {
        // The stream cannot be resynchronized after a bad header; send
        // the typed error and drop the connection.
        StartFrame(&frame);
        if (AppendReply(h.status(), nullptr, &frame).ok()) {
          (void)send_frame(kWireVersion);
        }
        MODB_COUNTER_INC("serve.errors");
        break;
      }
      std::string payload(h->payload_len, '\0');
      if (h->payload_len > 0) {
        // Mid-frame: the peer committed to payload_len bytes, so the
        // tighter io deadline applies — a stall here is a sick client,
        // not an idle one.
        Status s = ReadFullTimeout(fd, payload.data(), payload.size(), io_ms);
        if (!s.ok()) {
          (void)timed_out(s, /*idle_phase=*/false);
          break;
        }
      }
      StartFrame(&frame);
      Status handled;
      if (h->type == FrameType::kQuery) {
        handled = HandleQuery(payload, h->version, &frame);
      } else if (h->type == FrameType::kMutation) {
        handled = HandleMutation(payload, h->version, &frame);
      } else {
        handled = AppendReply(
            Status::InvalidArgument("expected a query or mutation frame"),
            nullptr, &frame);
        MODB_COUNTER_INC("serve.errors");
      }
      if (!handled.ok()) break;
      // Answer in the version the request arrived with, so a client
      // never sees a frame header newer than its own.
      Status s = send_frame(h->version);
      if (!s.ok()) {
        (void)timed_out(s, /*idle_phase=*/false);
        break;
      }
    }
  }
  std::lock_guard lock(mu_);
  open_fds_.erase(std::find(open_fds_.begin(), open_fds_.end(), fd));
  CloseFd(fd);
}

void Server::ServeHttp(int fd, const std::string& sniffed) {
  const int io_ms = options_.io_timeout_ms > 0 ? options_.io_timeout_ms : -1;
  // Read the rest of the request head (bounded; body-less GET). Each
  // byte read is individually bounded — good enough for a diagnostics
  // endpoint; the frame path is where the whole-read deadline matters.
  std::string head = sniffed;
  char c;
  while (head.size() < 8192 &&
         head.find("\r\n\r\n") == std::string::npos) {
    Result<bool> got = ReadFullOrEofTimeout(fd, &c, 1, io_ms);
    if (!got.ok() || !*got) {
      if (got.status().code() == StatusCode::kDeadlineExceeded) {
        MODB_COUNTER_INC("serve.timeouts");
        return;
      }
      break;
    }
    head.push_back(c);
  }
  const std::size_t path_begin = 4;  // after "GET "
  const std::size_t path_end = head.find(' ', path_begin);
  const std::string path = path_end == std::string::npos
                               ? std::string()
                               : head.substr(path_begin, path_end - path_begin);
  std::string response;
  if (path == "/metrics") {
    response = HttpResponse("200 OK", obs::Metrics::Global().ToJson());
  } else {
    response = HttpResponse("404 Not Found", "{\"error\":\"not found\"}");
  }
  (void)WriteFullTimeout(fd, response.data(), response.size(), io_ms);
}

Status Server::HandleQuery(std::string_view payload, std::uint8_t version,
                          std::string* frame) {
  const auto start = std::chrono::steady_clock::now();
  MODB_COUNTER_INC("serve.requests");
  auto reply_error = [frame](const Status& s) {
    MODB_COUNTER_INC("serve.errors");
    return AppendReply(s, nullptr, frame);
  };

  Result<QueryRequest> req = DecodeQueryRequest(payload, version);
  if (!req.ok()) return reply_error(req.status());

  ExecOptions options;
  options.parallel.num_threads = ClampThreads(req->num_threads);
  // The shared validation point; its message names the offending field
  // and bound, and the reply round-trips it as kInvalidArgument.
  if (Status s = ValidateParallelOptions(options.parallel); !s.ok()) {
    return reply_error(s);
  }
  // The deadline clock starts when the request is decoded, so queue
  // wait counts against it — admission predicts that wait, and the
  // morsel checkpoints in the engine enforce whatever is left.
  std::int64_t deadline_remaining_ns = -1;
  if (req->deadline_ms > 0) {
    options.deadline = start + std::chrono::milliseconds(req->deadline_ms);
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          *options.deadline - std::chrono::steady_clock::now())
                          .count();
    deadline_remaining_ns = left > 0 ? left : 0;
  }

  const std::int64_t cost =
      std::int64_t(ResolveWorkerCount(options.parallel));
  if (Status s = admission_.Acquire(cost, deadline_remaining_ns); !s.ok()) {
    MODB_COUNTER_INC("serve.rejected");
    return reply_error(s);
  }
  const auto acquired = std::chrono::steady_clock::now();
  // The reply is encoded while the query still holds the Db, so the
  // result's trails are never shared when a writer runs. A result too
  // large for one frame comes back as a typed kOutOfRange reply, and the
  // connection stays usable.
  Status s = db_->Run(*req, options, [frame](QueryResult& result) {
    return AppendReply(Status::OK(), &result, frame);
  });
  admission_.Release(
      cost, std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - acquired)
                              .count()));
  if (!s.ok()) return reply_error(s);
  MODB_HISTOGRAM_RECORD(
      "serve.request_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return Status::OK();
}

Status Server::HandleMutation(std::string_view payload, std::uint8_t version,
                              std::string* frame) {
  const auto start = std::chrono::steady_clock::now();
  MODB_COUNTER_INC("serve.requests");
  auto reply_error = [frame](const Status& s) {
    MODB_COUNTER_INC("serve.errors");
    return AppendMutationReply(s, nullptr, frame);
  };

  Result<MutationRequest> req = DecodeMutationRequest(payload, version);
  if (!req.ok()) return reply_error(req.status());

  // Mutations run single-threaded under the Db writer lock; they cost
  // one worker against the same budget queries draw from, so a write
  // burst degrades into the same typed rejections as a query burst.
  if (Status s = admission_.Acquire(1); !s.ok()) {
    MODB_COUNTER_INC("serve.rejected");
    return reply_error(s);
  }
  const auto acquired = std::chrono::steady_clock::now();
  Result<MutationResult> ack = db_->Apply(*req);
  admission_.Release(
      1, std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - acquired)
                           .count()));
  if (!ack.ok()) return reply_error(ack.status());

  if (Status s = AppendMutationReply(Status::OK(), &*ack, frame); !s.ok()) {
    return reply_error(s);
  }
  MODB_HISTOGRAM_RECORD(
      "serve.request_ns",
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return Status::OK();
}

}  // namespace serve
}  // namespace modb
