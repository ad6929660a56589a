// Runs every file in tests/hin/corrupt/ through the loaders and asserts the
// expected typed status. The corpus is the regression net for the hardened
// I/O boundary: each file is a distinct way real-world input goes wrong.
// This binary carries the `sanitize` ctest label so the corpus also runs
// under TMARK_SANITIZE=address builds.

#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "tmark/common/status.h"
#include "tmark/core/model_io.h"
#include "tmark/hin/hin_delta.h"
#include "tmark/hin/hin_io.h"

#ifndef TMARK_TEST_DATA_DIR
#error "TMARK_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace tmark {
namespace {

std::string CorpusPath(const std::string& file) {
  return std::string(TMARK_TEST_DATA_DIR) + "/hin/corrupt/" + file;
}

struct HinCase {
  const char* file;
  StatusCode expected;
};

// Names the case after its fixture in gtest output (and so in the ctest
// test names), instead of the raw bytes of the struct.
void PrintTo(const HinCase& c, std::ostream* os) { *os << c.file; }

class CorruptHinCorpusTest : public ::testing::TestWithParam<HinCase> {};

TEST_P(CorruptHinCorpusTest, YieldsExpectedStatus) {
  const HinCase& c = GetParam();
  const Result<hin::Hin> result = hin::LoadHinFromFile(CorpusPath(c.file));
  ASSERT_FALSE(result.ok()) << c.file;
  EXPECT_EQ(result.status().code(), c.expected)
      << c.file << ": " << result.status().ToString();
  // Every corpus error carries the path so the user can locate the file.
  EXPECT_NE(result.status().message().find(c.file), std::string::npos)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptHinCorpusTest,
    ::testing::Values(
        HinCase{"truncated_header.hin", StatusCode::kParseError},
        HinCase{"out_of_range_edge.hin", StatusCode::kParseError},
        HinCase{"overflowing_index.hin", StatusCode::kParseError},
        HinCase{"nan_weight.hin", StatusCode::kParseError},
        HinCase{"bad_feat_token.hin", StatusCode::kParseError},
        HinCase{"duplicate_edge.hin", StatusCode::kParseError},
        HinCase{"negative_weight.hin", StatusCode::kParseError},
        HinCase{"hostile_dimensions.hin", StatusCode::kParseError}),
    [](const ::testing::TestParamInfo<HinCase>& info) {
      std::string name = info.param.file;
      for (char& ch : name) {
        if (ch == '.' || ch == '/') ch = '_';
      }
      return name;
    });

struct DeltaCase {
  const char* file;
  StatusCode expected;
};

// Names the case after its fixture in gtest output (and so in the ctest
// test names), instead of the raw bytes of the struct.
void PrintTo(const DeltaCase& c, std::ostream* os) { *os << c.file; }

class CorruptDeltaCorpusTest : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(CorruptDeltaCorpusTest, YieldsExpectedStatus) {
  const DeltaCase& c = GetParam();
  const Result<hin::HinDelta> result =
      hin::LoadHinDeltaFromFile(CorpusPath(c.file));
  ASSERT_FALSE(result.ok()) << c.file;
  EXPECT_EQ(result.status().code(), c.expected)
      << c.file << ": " << result.status().ToString();
  EXPECT_NE(result.status().message().find(c.file), std::string::npos)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptDeltaCorpusTest,
    ::testing::Values(
        DeltaCase{"delta_bad_header.delta", StatusCode::kParseError},
        DeltaCase{"delta_unknown_directive.delta", StatusCode::kParseError},
        DeltaCase{"delta_nan_weight.delta", StatusCode::kParseError},
        DeltaCase{"delta_negative_weight.delta", StatusCode::kParseError},
        DeltaCase{"delta_duplicate_op.delta", StatusCode::kParseError},
        DeltaCase{"delta_overflowing_index.delta",
                  StatusCode::kParseError}),
    [](const ::testing::TestParamInfo<DeltaCase>& info) {
      std::string name = info.param.file;
      for (char& ch : name) {
        if (ch == '.' || ch == '/') ch = '_';
      }
      return name;
    });

struct ModelCase {
  const char* file;
  StatusCode expected;
};

// Names the case after its fixture in gtest output (and so in the ctest
// test names), instead of the raw bytes of the struct.
void PrintTo(const ModelCase& c, std::ostream* os) { *os << c.file; }

class CorruptModelCorpusTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(CorruptModelCorpusTest, YieldsExpectedStatus) {
  const ModelCase& c = GetParam();
  const Result<core::TMarkClassifier> result =
      core::LoadTMarkModelFromFile(CorpusPath(c.file));
  ASSERT_FALSE(result.ok()) << c.file;
  EXPECT_EQ(result.status().code(), c.expected)
      << c.file << ": " << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorruptModelCorpusTest,
    ::testing::Values(ModelCase{"model_conf_before_shape.tmm",
                                StatusCode::kFailedPrecondition},
                      ModelCase{"model_bad_alpha.tmm",
                                StatusCode::kParseError}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      std::string name = info.param.file;
      for (char& ch : name) {
        if (ch == '.' || ch == '/') ch = '_';
      }
      return name;
    });

TEST(CorruptCorpusTest, ParseErrorsNameTheOffendingLine) {
  const Result<hin::Hin> result =
      hin::LoadHinFromFile(CorpusPath("nan_weight.hin"));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("line 6"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace tmark
