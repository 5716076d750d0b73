// The modbd wire protocol codec: pure byte-level encoding of frames,
// QueryRequests, and replies, with no sockets anywhere — everything here
// operates on strings, so the fuzz tests can throw arbitrary bytes at
// the decoders without a server. See docs/PROTOCOL.md for the normative
// description.
//
// Framing: every message is a 12-byte header followed by the payload.
//
//   offset  size  field
//   0       4     magic "MODB"
//   4       1     protocol version (kWireVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be 0
//   8       4     payload length, unsigned little-endian
//
// Payloads are sequences of little-endian primitives and u32
// length-prefixed strings. Every decoder is bounds-checked and total: a
// truncated, oversized, or garbage frame yields a typed InvalidArgument
// (or DataLoss for a bad magic), never a crash or an over-read, and
// trailing bytes after a well-formed payload are rejected.

#ifndef MODB_SERVE_WIRE_H_
#define MODB_SERVE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "core/status.h"
#include "db/modb.h"

namespace modb {
namespace serve {

inline constexpr char kMagic[4] = {'M', 'O', 'D', 'B'};
/// v5 is the only version spoken: mutation frames, the window-aggregate
/// query fields, the query deadline (deadline_ms), the ingest
/// idempotency key (client_id, batch_seq), reference cells for
/// repeated mapping values in a rows block, and the compact xy block
/// (coordinates for the defined cells alone). Frames from any version in
/// [kMinWireVersion, kWireVersion] are accepted — the payload decoders
/// take the header's version, so a later version's trailing fields can
/// be read only when present — and a server answers in the version the
/// request arrived with (see docs/PROTOCOL.md, "Versioning").
inline constexpr std::uint8_t kWireVersion = 5;
inline constexpr std::uint8_t kMinWireVersion = 5;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Upper bound on a frame payload; larger length fields are rejected
/// before any allocation.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  /// client -> server: an encoded QueryRequest.
  kQuery = 1,
  /// server -> client: an encoded reply (status + optional result).
  kReply = 2,
  /// client -> server: an encoded MutationRequest (ingest / register /
  /// drop). Answered with a kReply whose result block is a mutation
  /// ack.
  kMutation = 3,
};

struct FrameHeader {
  FrameType type = FrameType::kQuery;
  /// The protocol version the peer stamped on this frame.
  std::uint8_t version = kWireVersion;
  std::uint32_t payload_len = 0;
};

/// Encodes the 12-byte frame header.
std::string EncodeFrameHeader(FrameType type, std::uint32_t payload_len,
                              std::uint8_t version = kWireVersion);

/// Decodes a frame header. `bytes` must be exactly kFrameHeaderBytes;
/// bad magic is DataLoss (the stream is not speaking this protocol —
/// resynchronization is hopeless), anything else wrong (version, type,
/// reserved, oversized length) is InvalidArgument.
Result<FrameHeader> DecodeFrameHeader(std::string_view bytes);

/// A frame buffer holds the 12 header bytes followed by the payload, so
/// a frame is encoded in place and leaves in one write, with no
/// header + payload copy. StartFrame resets `frame` to a blank header
/// (keeping its capacity); the payload is appended after it, then
/// SealFrame writes the header for it — InvalidArgument if the payload
/// exceeds kMaxFramePayload.
void StartFrame(std::string* frame);
Status SealFrame(FrameType type, std::uint8_t version, std::string* frame);

/// Little-endian payload writer. Fixed-width values and whole columns
/// are memcpy'd (the codecs assume a little-endian host; see
/// storage/flat.h). A writer constructed from a buffer appends after
/// its bytes — a frame header, earlier fields — and Take() hands it
/// back.
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::string buf) : buf_(std::move(buf)) {}

  /// Makes room for `n` more bytes.
  void Reserve(std::size_t n) { buf_.reserve(buf_.size() + n); }
  void U8(std::uint8_t v) { buf_.push_back(char(v)); }
  void U32(std::uint32_t v) { Bytes(&v, sizeof v); }
  void U64(std::uint64_t v) { Bytes(&v, sizeof v); }
  void I64(std::int64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  /// Raw bytes, no length prefix.
  void Bytes(const void* data, std::size_t n) {
    if (n > 0) buf_.append(static_cast<const char*>(data), n);
  }
  /// u32 length prefix + raw bytes.
  void Str(std::string_view v) {
    U32(std::uint32_t(v.size()));
    Bytes(v.data(), v.size());
  }
  /// Writes a placeholder u32 length prefix and returns its offset;
  /// PatchLength(at) fills in the number of bytes appended since.
  std::size_t BeginLength() {
    const std::size_t at = buf_.size();
    U32(0);
    return at;
  }
  void PatchLength(std::size_t at) {
    const std::uint32_t n = std::uint32_t(buf_.size() - at - sizeof n);
    std::memcpy(buf_.data() + at, &n, sizeof n);
  }

  /// The buffer, for serializers that append to a std::string.
  std::string* buffer() { return &buf_; }
  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian payload reader. Every accessor returns
/// InvalidArgument instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Status U8(std::uint8_t* v) { return Bytes(v, sizeof *v); }
  Status U32(std::uint32_t* v) { return Bytes(v, sizeof *v); }
  Status U64(std::uint64_t* v) { return Bytes(v, sizeof *v); }
  Status I64(std::int64_t* v) { return Bytes(v, sizeof *v); }
  Status F64(double* v) { return Bytes(v, sizeof *v); }
  Status Str(std::string* v);
  /// Like Str, but the bytes stay in place (valid while the payload is).
  Status StrView(std::string_view* v);
  /// The next n bytes in place.
  Status View(std::size_t n, std::string_view* v);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// InvalidArgument unless the payload was consumed exactly.
  Status ExpectEnd() const;

 private:
  Status Need(std::size_t n) const;
  Status Bytes(void* out, std::size_t n) {
    MODB_RETURN_IF_ERROR(Need(n));
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// QueryRequest <-> bytes, field for field. Encoders always emit the
/// current version's field set; decoders take the frame header's
/// version and require exactly that version's fields.
std::string EncodeQueryRequest(const QueryRequest& req);
Result<QueryRequest> DecodeQueryRequest(
    std::string_view payload, std::uint8_t version = kWireVersion);

/// MutationRequest <-> bytes, field for field (same versioning rule).
std::string EncodeMutationRequest(const MutationRequest& req);
Result<MutationRequest> DecodeMutationRequest(
    std::string_view payload, std::uint8_t version = kWireVersion);

/// MutationResult <-> bytes. The ack travels in the reply's result
/// block slot under its own block kind (3), deliberately outside the
/// QueryResult payload range so DecodeResultBlock keeps rejecting it —
/// a client cannot mistake an ack for rows.
std::string EncodeMutationAck(const MutationResult& ack);
Result<MutationResult> DecodeMutationAck(std::string_view block);

/// QueryResult payload <-> bytes: the deterministic part of a reply
/// (rows / xy / present geometry), NOT including stats — two runs of the
/// same query produce byte-identical result blocks for any thread
/// count, which is what the concurrent-client determinism tests and
/// loadgen --verify compare. A mapping cell of a rows block whose
/// serialisation repeats an earlier cell's of the same type is sent as
/// a reference to the first one, and decodes to a copy sharing that
/// cell's unit array (docs/PROTOCOL.md §5).
Result<std::string> EncodeResultBlock(const QueryResult& result);
Result<QueryResult> DecodeResultBlock(std::string_view block);

/// A decoded reply: the remote status, the raw result block (empty on
/// error — kept so clients can compare identity without re-encoding),
/// and the ExecStats JSON (outside the identity-compared bytes: wall
/// times differ run to run).
struct WireReply {
  Status status;
  std::string result_block;
  std::string stats_json;
};

/// Reply payload: u32 status code, string message, string result block
/// (empty on error), string stats JSON — appended to `*out` (after a
/// frame header, say) in one pass: the reply's size is computed first,
/// the buffer reserved once, and every field and result-block column
/// written straight into it. A reply whose payload would exceed
/// kMaxFramePayload is not encoded: AppendReply returns kOutOfRange
/// naming the size and the cap, which the server sends back as the
/// (terminal) error reply. On error nothing is appended.
Status AppendReply(const Status& status, const QueryResult* result,
                   std::string* out);
/// Reply to a mutation: same layout, the block is a mutation ack and
/// the stats JSON is empty.
Status AppendMutationReply(const Status& status, const MutationResult* ack,
                           std::string* out);
/// AppendReply / AppendMutationReply into a fresh string.
Result<std::string> EncodeReply(const Status& status,
                                const QueryResult* result);
Result<std::string> EncodeMutationReply(const Status& status,
                                        const MutationResult* ack);
/// Takes the payload by value and cuts the result block out of it in
/// place, so a caller that moves its frame payload in (Client does)
/// gets the block without a copy.
Result<WireReply> DecodeReply(std::string payload);

}  // namespace serve
}  // namespace modb

#endif  // MODB_SERVE_WIRE_H_
