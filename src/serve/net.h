// Thin POSIX TCP helpers shared by the modbd server and the client:
// bind/listen/connect plus loop-until-done reads and writes, and the
// frame I/O built on them. Everything returns Status/Result — no
// exceptions, no partial-read surprises — and file descriptors are
// plain ints owned by the caller.

#ifndef MODB_SERVE_NET_H_
#define MODB_SERVE_NET_H_

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "core/status.h"
#include "serve/wire.h"

namespace modb {
namespace serve {

/// Binds and listens on host:port (port 0 picks an ephemeral port).
/// Returns the listening fd.
Result<int> ListenTcp(const std::string& host, int port);

/// The locally bound port of a socket (resolves port-0 binds).
Result<int> BoundPort(int fd);

/// Connects to host:port; returns the connected fd.
Result<int> ConnectTcp(const std::string& host, int port);

/// Like ConnectTcp, but the whole connect must finish within
/// timeout_ms (a typed kDeadlineExceeded otherwise). timeout_ms < 0
/// blocks like ConnectTcp.
Result<int> ConnectTcpTimeout(const std::string& host, int port,
                              int timeout_ms);

/// Reads exactly n bytes. Internal on error, DataLoss on EOF mid-read.
Status ReadFull(int fd, void* buf, std::size_t n);

/// Like ReadFull, but a clean EOF before the first byte returns false
/// (the peer closed between messages — not an error).
Result<bool> ReadFullOrEof(int fd, void* buf, std::size_t n);

/// Writes exactly n bytes. Never raises SIGPIPE: a peer-closed socket
/// surfaces as an ordinary Internal (EPIPE) status.
Status WriteFull(int fd, const void* buf, std::size_t n);

/// Deadline-bounded variants. The WHOLE operation must finish within
/// timeout_ms of the call — the clock is NOT reset per byte, so a peer
/// trickling one byte at a time (slow loris) still hits the deadline.
/// Expiry is a typed kDeadlineExceeded naming the bytes of progress;
/// timeout_ms < 0 blocks forever (the untimed behavior).
Result<bool> ReadFullOrEofTimeout(int fd, void* buf, std::size_t n,
                                  int timeout_ms);
Status ReadFullTimeout(int fd, void* buf, std::size_t n, int timeout_ms);
/// Reads what one read() returns, up to n bytes, after waiting at most
/// timeout_ms for the fd to become readable: the count, 0 at EOF.
Result<std::size_t> ReadSomeTimeout(int fd, void* buf, std::size_t n,
                                    int timeout_ms);
Status WriteFullTimeout(int fd, const void* buf, std::size_t n,
                        int timeout_ms);

/// Half-closes / closes, ignoring errors (teardown paths).
/// ShutdownReadFd closes only the read side: a blocked read returns,
/// but a reply in flight can still be written.
void ShutdownFd(int fd);
void ShutdownReadFd(int fd);
void CloseFd(int fd);

/// Writes one frame (header + payload). The payload must fit the frame
/// cap. `version` stamps the header — servers answer a request in the
/// version it arrived with.
Status WriteFrame(int fd, FrameType type, std::string_view payload,
                  std::uint8_t version = kWireVersion);
/// Deadline-bounded WriteFrame (semantics as WriteFullTimeout).
Status WriteFrameTimeout(int fd, FrameType type, std::string_view payload,
                         int timeout_ms,
                         std::uint8_t version = kWireVersion);

struct Frame {
  FrameType type = FrameType::kQuery;
  /// The header's protocol version ({kMinWireVersion..kWireVersion});
  /// payload decoders need it to pick the right field set.
  std::uint8_t version = kWireVersion;
  std::string payload;
};

/// Reads one frame; nullopt on clean EOF at a frame boundary. Header
/// decode errors (bad magic, oversized length) surface as the header
/// decoder's typed status without reading the payload.
Result<std::optional<Frame>> ReadFrame(int fd);

/// Deadline-bounded ReadFrame: the header read and the payload read are
/// each bounded by timeout_ms (so a frame takes at most 2x timeout_ms);
/// timeout_ms < 0 blocks like ReadFrame.
Result<std::optional<Frame>> ReadFrameTimeout(int fd, int timeout_ms);

}  // namespace serve
}  // namespace modb

#endif  // MODB_SERVE_NET_H_
