#include "tmark/serve/protocol.h"

#include <cstdio>
#include <istream>
#include <ostream>

#include "tmark/common/check.h"
#include "tmark/common/strict_parse.h"
#include "tmark/common/string_util.h"

namespace tmark::serve {
namespace {

/// Longest accepted length prefix: 2^64-1 has 20 digits; anything longer
/// is hostile regardless of the configured frame limit.
constexpr std::size_t kMaxLengthDigits = 20;

std::string FormatScore(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

Result<double> ParseScoreToken(std::string_view token) {
  return ParseFiniteDouble(token);
}

}  // namespace

std::string_view ToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kClassify:
      return "classify";
    case RequestKind::kRank:
      return "rank";
    case RequestKind::kTopK:
      return "topk";
    case RequestKind::kUpdate:
      return "update";
  }
  TMARK_CHECK_MSG(false, "unknown RequestKind");
  return "";
}

Status WriteFrame(std::ostream& out, std::string_view payload) {
  // The whole frame goes to the stream in one write: over an unbuffered
  // socket stream, a separate write for the length prefix lets Nagle's
  // algorithm hold the payload behind the peer's delayed ACK.
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame += payload;
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.flush();
  if (!out.good()) {
    return DataLossError("stream rejected a " +
                         std::to_string(payload.size()) + "-byte frame");
  }
  return Status::Ok();
}

Result<bool> ReadFrame(std::istream& in, const ProtocolLimits& limits,
                       std::string* payload) {
  TMARK_CHECK(payload != nullptr);
  payload->clear();
  std::string digits;
  for (;;) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) {
      if (digits.empty()) return false;  // clean EOF at a frame boundary
      return DataLossError("stream ended inside a frame length prefix");
    }
    if (c == '\n') break;
    digits.push_back(static_cast<char>(c));
    if (digits.size() > kMaxLengthDigits) {
      return ParseError("frame length prefix longer than " +
                        std::to_string(kMaxLengthDigits) + " digits");
    }
  }
  const Result<std::size_t> length = ParseIndex(digits);
  if (!length.ok()) {
    return length.status().WithContext("frame length prefix");
  }
  if (*length > limits.max_frame_bytes) {
    return ResourceExhaustedError(
        "frame of " + std::to_string(*length) + " bytes exceeds the " +
        std::to_string(limits.max_frame_bytes) + "-byte limit");
  }
  payload->resize(*length);
  in.read(payload->data(), static_cast<std::streamsize>(*length));
  if (static_cast<std::size_t>(in.gcount()) != *length) {
    payload->clear();
    return DataLossError("stream ended inside a " + std::to_string(*length) +
                         "-byte frame payload");
  }
  return true;
}

Result<Request> ParseRequest(std::string_view payload) {
  if (payload.empty()) return ParseError("empty request");
  const std::vector<std::string> tokens = Split(payload, ' ');
  for (const std::string& token : tokens) {
    if (token.empty()) return ParseError("request has empty tokens");
  }
  const std::string& verb = tokens[0];
  Request request;
  if (verb == "classify") {
    if (tokens.size() != 2) {
      return ParseError("classify takes exactly one argument: <node>");
    }
    request.kind = RequestKind::kClassify;
    TMARK_ASSIGN_OR_RETURN(request.node, ParseIndex(tokens[1]));
    return request;
  }
  if (verb == "rank" || verb == "topk") {
    if (tokens.size() != 3) {
      return ParseError(verb + " takes exactly two arguments: <seed> <k>");
    }
    request.kind = verb == "rank" ? RequestKind::kRank : RequestKind::kTopK;
    TMARK_ASSIGN_OR_RETURN(request.node, ParseIndex(tokens[1]));
    TMARK_ASSIGN_OR_RETURN(request.top_k, ParseIndex(tokens[2]));
    if (request.top_k == 0) {
      return ParseError(verb + " needs k >= 1");
    }
    return request;
  }
  if (verb == "update") {
    // The path is the rest of the line (server-side paths may hold spaces).
    const std::string path =
        Strip(payload.substr(std::string_view("update").size()));
    if (path.empty()) {
      return ParseError("update takes a server-side delta file path");
    }
    request.kind = RequestKind::kUpdate;
    request.path = path;
    return request;
  }
  return ParseError("unknown verb '" + verb +
                    "' (expected classify|rank|topk|update)");
}

std::string FormatRequest(const Request& request) {
  std::string out(ToString(request.kind));
  switch (request.kind) {
    case RequestKind::kClassify:
      out += " " + std::to_string(request.node);
      break;
    case RequestKind::kRank:
    case RequestKind::kTopK:
      out += " " + std::to_string(request.node) + " " +
             std::to_string(request.top_k);
      break;
    case RequestKind::kUpdate:
      out += " " + request.path;
      break;
  }
  return out;
}

std::string FormatResponse(const Response& response) {
  std::string out = "ok ";
  out += ToString(response.kind);
  out += " " + std::to_string(response.node);
  out += response.stale ? " 1" : " 0";
  out += " " + std::to_string(response.generation);
  out += " " + std::to_string(response.fingerprint);
  for (const ScoredEntry& entry : response.entries) {
    out += " " + std::to_string(entry.index) + ":" + FormatScore(entry.score);
  }
  return out;
}

std::string FormatError(const Status& status) {
  TMARK_CHECK_MSG(!status.ok(), "FormatError needs a non-OK status");
  std::string out = "error ";
  out += StatusCodeToString(status.code());
  if (!status.message().empty()) {
    // The payload is one line by construction; strip embedded breaks.
    std::string message = status.message();
    for (char& c : message) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out += " " + message;
  }
  return out;
}

Result<Response> ParseResponse(std::string_view payload) {
  const std::vector<std::string> tokens = Split(payload, ' ');
  if (tokens.empty() || tokens[0].empty()) {
    return ParseError("empty response");
  }
  if (tokens[0] == "error") {
    if (tokens.size() < 2) return ParseError("error response without a code");
    StatusCode code = StatusCode::kInternal;
    bool known = false;
    for (const StatusCode candidate :
         {StatusCode::kInvalidArgument, StatusCode::kParseError,
          StatusCode::kNotFound, StatusCode::kFailedPrecondition,
          StatusCode::kDataLoss, StatusCode::kResourceExhausted,
          StatusCode::kInternal}) {
      if (tokens[1] == StatusCodeToString(candidate)) {
        code = candidate;
        known = true;
        break;
      }
    }
    if (!known) {
      return ParseError("unknown error code '" + tokens[1] + "'");
    }
    std::vector<std::string> rest(tokens.begin() + 2, tokens.end());
    return Status(code, Join(rest, " "));
  }
  if (tokens[0] != "ok" || tokens.size() < 6) {
    return ParseError("malformed response header");
  }
  Response response;
  bool verb_known = false;
  for (const RequestKind kind :
       {RequestKind::kClassify, RequestKind::kRank, RequestKind::kTopK,
        RequestKind::kUpdate}) {
    if (tokens[1] == ToString(kind)) {
      response.kind = kind;
      verb_known = true;
      break;
    }
  }
  if (!verb_known) {
    return ParseError("unknown response verb '" + tokens[1] + "'");
  }
  TMARK_ASSIGN_OR_RETURN(response.node, ParseIndex(tokens[2]));
  if (tokens[3] != "0" && tokens[3] != "1") {
    return ParseError("stale flag must be 0 or 1");
  }
  response.stale = tokens[3] == "1";
  TMARK_ASSIGN_OR_RETURN(response.generation, ParseIndex(tokens[4]));
  TMARK_ASSIGN_OR_RETURN(response.fingerprint, ParseIndex(tokens[5]));
  for (std::size_t i = 6; i < tokens.size(); ++i) {
    const std::vector<std::string> parts = Split(tokens[i], ':');
    if (parts.size() != 2) {
      return ParseError("malformed entry '" + tokens[i] + "'");
    }
    ScoredEntry entry;
    TMARK_ASSIGN_OR_RETURN(entry.index, ParseIndex(parts[0]));
    TMARK_ASSIGN_OR_RETURN(entry.score, ParseScoreToken(parts[1]));
    response.entries.push_back(entry);
  }
  return response;
}

}  // namespace tmark::serve
