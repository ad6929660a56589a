// Runs every file in tests/serve/corrupt/ through the serving protocol
// reader (ReadFrame, then ParseRequest when the frame itself is well
// formed) and asserts the expected typed status. Each fixture is a
// distinct way a hostile or broken client can corrupt the wire format:
// non-numeric / negative / overlong length prefixes, frames over the size
// limit (kResourceExhausted — the one retryable refusal), streams that end
// mid-frame (kDataLoss), and syntactically valid frames carrying malformed
// requests (kParseError). This binary carries the `sanitize` ctest label so
// the corpus also runs under TMARK_SANITIZE=address/thread builds.

#include <fstream>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "tmark/common/status.h"
#include "tmark/serve/protocol.h"

#ifndef TMARK_TEST_DATA_DIR
#error "TMARK_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace tmark::serve {
namespace {

std::string CorpusPath(const std::string& file) {
  return std::string(TMARK_TEST_DATA_DIR) + "/serve/corrupt/" + file;
}

struct WireCase {
  const char* file;
  StatusCode expected;
};

// Names the case after its fixture in gtest output (and so in the ctest
// test names), instead of the raw bytes of the struct.
void PrintTo(const WireCase& c, std::ostream* os) { *os << c.file; }

/// Feeds one fixture through the frame reader and, when the frame is
/// intact, the request parser; returns the first failure.
Status RunWire(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::string payload;
  const Result<bool> frame = ReadFrame(in, ProtocolLimits{}, &payload);
  if (!frame.ok()) return frame.status();
  EXPECT_TRUE(frame.value()) << path << ": fixture holds no frame at all";
  const Result<Request> request = ParseRequest(payload);
  if (!request.ok()) return request.status();
  return Status::Ok();
}

class CorruptWireCorpusTest : public ::testing::TestWithParam<WireCase> {};

TEST_P(CorruptWireCorpusTest, YieldsExpectedStatus) {
  const WireCase& c = GetParam();
  const Status status = RunWire(CorpusPath(c.file));
  ASSERT_FALSE(status.ok()) << c.file << " was accepted";
  EXPECT_EQ(status.code(), c.expected)
      << c.file << ": " << status.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptWireCorpusTest,
    ::testing::Values(
        WireCase{"bad_length.req", StatusCode::kParseError},
        WireCase{"negative_length.req", StatusCode::kParseError},
        WireCase{"long_prefix.req", StatusCode::kParseError},
        WireCase{"oversized_frame.req", StatusCode::kResourceExhausted},
        WireCase{"truncated_payload.req", StatusCode::kDataLoss},
        WireCase{"truncated_prefix.req", StatusCode::kDataLoss},
        WireCase{"empty_payload.req", StatusCode::kParseError},
        WireCase{"unknown_verb.req", StatusCode::kParseError},
        WireCase{"bad_node_id.req", StatusCode::kParseError},
        WireCase{"missing_k.req", StatusCode::kParseError},
        WireCase{"overflowing_index.req", StatusCode::kParseError},
        WireCase{"zero_k.req", StatusCode::kParseError},
        WireCase{"update_no_path.req", StatusCode::kParseError}),
    [](const ::testing::TestParamInfo<WireCase>& info) {
      std::string name = info.param.file;
      for (char& ch : name) {
        if (ch == '.' || ch == '/') ch = '_';
      }
      return name;
    });

// The error a corrupt frame provokes must survive the wire: FormatError
// followed by ParseResponse round-trips the code the client retries (or
// not) on.
TEST(CorruptWireCorpusTest, ErrorCodesRoundTripThroughTheWireFormat) {
  for (const WireCase c :
       {WireCase{"oversized_frame.req", StatusCode::kResourceExhausted},
        WireCase{"unknown_verb.req", StatusCode::kParseError},
        WireCase{"truncated_payload.req", StatusCode::kDataLoss}}) {
    const Status status = RunWire(CorpusPath(c.file));
    ASSERT_FALSE(status.ok());
    const Result<Response> echoed = ParseResponse(FormatError(status));
    ASSERT_FALSE(echoed.ok()) << c.file;
    EXPECT_EQ(echoed.status().code(), c.expected) << c.file;
  }
}

}  // namespace
}  // namespace tmark::serve
