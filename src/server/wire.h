#ifndef RCC_SERVER_WIRE_H_
#define RCC_SERVER_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "plan/expr.h"
#include "storage/schema.h"

namespace rcc {
namespace server {

/// The rcc.wire.v1 protocol (DESIGN.md §14): a stream of length-prefixed
/// binary frames, identical in both directions. All integers are
/// little-endian; doubles are IEEE-754 bit patterns.
///
///   frame := u32 len | u8 opcode | u32 seq | payload[len - 5]
///
/// `len` counts everything after the length field (opcode + seq + payload),
/// so the smallest legal frame has len == 5. `seq` is a client-chosen
/// request number; every response frame for that request echoes it, which is
/// what makes pipelining (several requests in flight on one connection)
/// unambiguous. A request's response frames are contiguous on the wire and
/// always end with one kStatus frame — the terminal frame carrying the full
/// Status (code + message) or the success summary.
constexpr uint16_t kProtocolVersion = 1;

/// Frames with len below this cannot carry opcode + seq.
constexpr uint32_t kMinFrameLen = 5;

enum class Opcode : uint8_t {
  // client -> server
  kHello = 0x01,    ///< u16 version, str client_name. Must be the first frame.
  kQuery = 0x02,    ///< str sql — one-shot statement (SELECT/DML/EXPLAIN/...).
  kPrepare = 0x03,  ///< str sql — register a statement, returns kPrepareOk.
  kExecute = 0x04,  ///< u32 stmt_id — run a prepared statement.
  kSet = 0x05,      ///< str "SET ..." — control frame, run in arrival order.
  kGoodbye = 0x06,  ///< empty — flush pending responses, then close.
  /// u32 deadline_ms, str sql — kQuery with a per-request deadline carried
  /// in-band. The budget starts when the server decodes the frame, so queue
  /// wait counts against it; 0 means "no per-request override" and falls
  /// back to SET DEADLINE / the server default.
  kQueryDeadline = 0x07,
  // server -> client
  kHelloOk = 0x81,     ///< u16 version, u64 session_id, str banner.
  kRowsHeader = 0x82,  ///< u32 ncols, ncols x { str name, u8 value_type }.
  kRows = 0x83,        ///< u32 nrows, nrows x row (tagged values).
  kStatus = 0x84,      ///< terminal status (see StatusFramePayload).
  kPrepareOk = 0x85,   ///< u32 stmt_id.
};

/// True for opcodes a client may send.
bool IsClientOpcode(uint8_t op);

/// One decoded frame.
struct Frame {
  Opcode op = Opcode::kStatus;
  uint32_t seq = 0;
  std::string payload;
};

/// Payload of the terminal kStatus frame: the operation status (the
/// Result<QueryResult> error chain collapses to code + message) plus the
/// success-side summary fields a client needs without parsing rows.
struct StatusFramePayload {
  uint16_t code = 0;  ///< StatusCode of the operation (0 == OK).
  std::string message;
  bool degraded = false;
  int64_t staleness_ms = 0;
  int64_t rows_affected = 0;
  int64_t executed_at = 0;
  /// StaleOk advisory text ("" when none) — paper §1's "data plus error
  /// code" contract survives the wire.
  std::string advisory;

  bool ok() const { return code == 0; }
};

// -- byte-level writers ------------------------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutF64(std::string* out, double v);
/// u32 length + raw bytes.
void PutStr(std::string* out, std::string_view s);

/// Appends one whole frame (length prefix included) to `out`.
void AppendFrame(std::string* out, Opcode op, uint32_t seq,
                 std::string_view payload);

// -- byte-level reader -------------------------------------------------------

/// Cursor over a payload. Every getter returns false (and poisons the
/// reader) on underrun, so decoders end with one `ok()` check.
class WireReader {
 public:
  explicit WireReader(std::string_view buf) : buf_(buf) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I64(int64_t* v);
  bool F64(double* v);
  bool Str(std::string* v);

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  bool Take(size_t n, const char** p);
  std::string_view buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// -- frame assembly ----------------------------------------------------------

/// Incremental frame parser fed from a socket. Shared by the server's
/// connection reader and the blocking client.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes) : max_(max_frame_bytes) {}

  void Feed(const char* data, size_t n) { buf_.append(data, n); }

  enum class Next {
    kFrame,     ///< *out holds the next complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< protocol violation (oversized/undersized length prefix)
  };

  /// Pops the next complete frame. On kError, `*error` describes the
  /// violation; the stream is unrecoverable (framing is lost).
  Next Pop(Frame* out, std::string* error);

  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  size_t max_;
  std::string buf_;
  size_t consumed_ = 0;
};

// -- typed payload encode/decode --------------------------------------------

std::string EncodeHelloPayload(uint16_t version, std::string_view client_name);
Status DecodeHelloPayload(std::string_view payload, uint16_t* version,
                          std::string* client_name);

std::string EncodeHelloOkPayload(uint16_t version, uint64_t session_id,
                                 std::string_view banner);
Status DecodeHelloOkPayload(std::string_view payload, uint16_t* version,
                            uint64_t* session_id, std::string* banner);

/// Column names and value types of a result set.
std::string EncodeRowsHeaderPayload(const RowLayout& layout);
Status DecodeRowsHeaderPayload(std::string_view payload,
                               std::vector<std::string>* names,
                               std::vector<uint8_t>* types);

/// Encodes rows [begin, end) of `rows` as one kRows payload. Values are
/// tagged with their ValueType, so heterogeneous columns survive.
std::string EncodeRowsPayload(const std::vector<Row>& rows, size_t begin,
                              size_t end);
Status DecodeRowsPayload(std::string_view payload, std::vector<Row>* rows);

std::string EncodeStatusPayload(const StatusFramePayload& status);
Status DecodeStatusPayload(std::string_view payload, StatusFramePayload* out);

std::string EncodeQueryDeadlinePayload(uint32_t deadline_ms,
                                       std::string_view sql);
Status DecodeQueryDeadlinePayload(std::string_view payload,
                                  uint32_t* deadline_ms, std::string* sql);

}  // namespace server
}  // namespace rcc

#endif  // RCC_SERVER_WIRE_H_
