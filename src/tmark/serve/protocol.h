#ifndef TMARK_SERVE_PROTOCOL_H_
#define TMARK_SERVE_PROTOCOL_H_

// Wire protocol of the tmark_served daemon (docs/SERVING.md).
//
// Framing: every message — request or response — is one frame
//
//   <len>\n<payload>
//
// where <len> is the decimal byte length of <payload> (no sign, no
// leading zeros required) and <payload> is a single line of UTF-8 text
// without a trailing newline. Length-prefixing keeps the reader O(len)
// with a hard ceiling: a frame whose declared length exceeds
// ProtocolLimits::max_frame_bytes is refused with kResourceExhausted
// before any payload byte is read.
//
// Request grammar (one verb per frame):
//
//   classify <node>            posterior class distribution of <node>
//   rank <seed> <k>            top-k link types for a walk seeded at <seed>
//   topk <seed> <k>            top-k nodes for a walk seeded at <seed>
//   update <path>              apply a HinDelta file, refresh in background
//
// Response grammar:
//
//   ok <verb> <node> <stale> <generation> <fingerprint> [<i>:<score> ...]
//   error <CODE> <message>
//
// `stale` is 1 when the answer came from the previous bundle while a
// background update was running (graceful degradation). Scores use %.17g
// so they round-trip exactly through the strict parsers.
//
// Everything here is an untrusted-input boundary: all readers and parsers
// return tmark::Status / tmark::Result (docs/ERRORS.md; error_policy_lint
// checks this file's sources for lenient parsers). Failed frame reads and
// request parses are counted in the io.errors{,.<code>} counters by the
// server loop, not here.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "tmark/common/status.h"

namespace tmark::serve {

/// Hard ceilings the frame reader enforces before touching payload bytes.
struct ProtocolLimits {
  /// Longest accepted payload. Every legitimate request is tens of bytes;
  /// the default leaves room for long update paths.
  std::size_t max_frame_bytes = 4096;
};

enum class RequestKind {
  kClassify,
  kRank,
  kTopK,
  kUpdate,
};

/// "classify", "rank", "topk", "update".
std::string_view ToString(RequestKind kind);

/// One parsed client request.
struct Request {
  RequestKind kind = RequestKind::kClassify;
  /// Target node (classify) or walk seed (rank/topk). Unused for update.
  std::size_t node = 0;
  /// Result-list size for rank/topk; must be >= 1.
  std::size_t top_k = 0;
  /// Server-side HinDelta file for update.
  std::string path;
};

/// One (index, score) result entry: class index for classify, relation
/// index for rank, node index for topk.
struct ScoredEntry {
  std::size_t index = 0;
  double score = 0.0;
};

/// One served answer.
struct Response {
  RequestKind kind = RequestKind::kClassify;
  std::size_t node = 0;
  /// True when served from the previous bundle during a background update.
  bool stale = false;
  /// Bundle generation (starts at 1, +1 per hot swap).
  std::uint64_t generation = 0;
  /// Content fingerprint of the operators the answer came from
  /// (core::FingerprintOperators) — the serving side of the fingerprint
  /// honesty rule.
  std::uint64_t fingerprint = 0;
  std::vector<ScoredEntry> entries;
};

/// Writes one frame around `payload` in a single stream write. Returns
/// kDataLoss when the stream rejects bytes.
Status WriteFrame(std::ostream& out, std::string_view payload);

/// Reads one frame into `payload`. Returns false on clean end-of-stream at
/// a frame boundary (no bytes read), true on a full frame. Errors:
/// kParseError for a malformed length prefix, kResourceExhausted when the
/// declared length exceeds `limits`, kDataLoss when the stream ends inside
/// the declared payload.
Result<bool> ReadFrame(std::istream& in, const ProtocolLimits& limits,
                       std::string* payload);

/// Parses a request payload against the grammar above. Index and k tokens
/// go through the strict parsers; `k` must be >= 1. Range checks against
/// the served model happen later, in the scheduler.
Result<Request> ParseRequest(std::string_view payload);

/// Serializes `request` to its payload line (inverse of ParseRequest).
std::string FormatRequest(const Request& request);

/// Serializes an ok-response to its payload line.
std::string FormatResponse(const Response& response);

/// Serializes a non-OK status to an `error <CODE> <message>` payload.
std::string FormatError(const Status& status);

/// Parses a response payload: an `ok ...` line yields the Response, an
/// `error ...` line yields the transported Status, anything else is
/// kParseError. Used by the load generator and the tests; the daemon only
/// formats.
Result<Response> ParseResponse(std::string_view payload);

}  // namespace tmark::serve

#endif  // TMARK_SERVE_PROTOCOL_H_
