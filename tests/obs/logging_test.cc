#include "tmark/obs/logging.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <iterator>
#include <string>

#include "tmark/common/status.h"
#include "tmark/obs/metrics.h"

namespace tmark::obs {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Logger::Instance().set_stderr_enabled(false);
    // Own file per process: ctest -j runs the cases as concurrent processes.
    path_ = ::testing::TempDir() + "/tmark_logging_test." +
            std::to_string(::getpid()) + ".log";
    std::remove(path_.c_str());
    ASSERT_TRUE(Logger::Instance().set_sink_file(path_));
  }

  void TearDown() override {
    Logger::Instance().set_sink_file("");
    Logger::Instance().set_level(LogLevel::kInfo);
    Logger::Instance().set_stderr_enabled(true);
    std::remove(path_.c_str());
  }

  std::string SinkContents() const {
    std::ifstream in(path_);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  std::string path_;
};

TEST_F(LoggingTest, ParseLogLevelAcceptsAllSpellings) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warn"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("warning"), LogLevel::kWarn);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("off"), LogLevel::kOff);
  EXPECT_EQ(ParseLogLevel("none"), LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose").has_value());
  EXPECT_FALSE(ParseLogLevel("").has_value());
}

TEST_F(LoggingTest, LevelFilteringSuppressesLowerSeverities) {
  Logger::Instance().set_level(LogLevel::kWarn);
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kDebug));
  EXPECT_FALSE(Logger::Instance().Enabled(LogLevel::kInfo));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kWarn));
  EXPECT_TRUE(Logger::Instance().Enabled(LogLevel::kError));

  LogInfo("suppressed.event");
  LogWarn("visible.event");
  const std::string contents = SinkContents();
  EXPECT_EQ(contents.find("suppressed.event"), std::string::npos);
  EXPECT_NE(contents.find("visible.event"), std::string::npos);
  EXPECT_NE(contents.find("[WARN"), std::string::npos);
}

TEST_F(LoggingTest, OffLevelSilencesEverything) {
  Logger::Instance().set_level(LogLevel::kOff);
  LogError("silenced");
  EXPECT_EQ(SinkContents(), "");
}

TEST_F(LoggingTest, StructuredFieldsAreKeyValueFormatted) {
  Logger::Instance().set_level(LogLevel::kInfo);
  LogInfo("fit.done", {{"method", "T-Mark"},
                       {"accuracy", 0.935},
                       {"iterations", std::int64_t{12}},
                       {"converged", true}});
  const std::string contents = SinkContents();
  EXPECT_NE(contents.find("fit.done"), std::string::npos);
  EXPECT_NE(contents.find("method=T-Mark"), std::string::npos);
  EXPECT_NE(contents.find("accuracy=0.935"), std::string::npos);
  EXPECT_NE(contents.find("iterations=12"), std::string::npos);
  EXPECT_NE(contents.find("converged=true"), std::string::npos);
}

TEST_F(LoggingTest, ValuesWithSpacesOrQuotesAreQuoted) {
  Logger::Instance().set_level(LogLevel::kInfo);
  LogInfo("quoting", {{"msg", "two words"}, {"q", "has \"quote\""}});
  const std::string contents = SinkContents();
  EXPECT_NE(contents.find("msg=\"two words\""), std::string::npos);
  EXPECT_NE(contents.find("q=\"has \\\"quote\\\"\""), std::string::npos);
}

TEST_F(LoggingTest, EachWriteIsOneLine) {
  Logger::Instance().set_level(LogLevel::kInfo);
  LogInfo("first");
  LogInfo("second");
  const std::string contents = SinkContents();
  std::size_t lines = 0;
  for (char c : contents) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(LoggingTest, SinkFileFailureKeepsLoggerUsable) {
  EXPECT_FALSE(
      Logger::Instance().set_sink_file("/nonexistent-dir/x/tmark.log"));
  Logger::Instance().set_level(LogLevel::kInfo);
  LogInfo("still.works");
  EXPECT_NE(SinkContents().find("still.works"), std::string::npos);
}

TEST_F(LoggingTest, OpenSinkFileReturnsTypedNotFoundOnFailure) {
  const Status status =
      Logger::Instance().OpenSinkFile("/nonexistent-dir/x/tmark.log");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_NE(status.ToString().find("/nonexistent-dir/x/tmark.log"),
            std::string::npos);
  EXPECT_TRUE(Logger::Instance().OpenSinkFile(path_).ok());
  EXPECT_TRUE(Logger::Instance().OpenSinkFile("").ok());  // detach
}

TEST_F(LoggingTest, SinkOpenFailureBumpsFileErrorCounter) {
  Registry::Instance().Reset();
  Registry::Instance().set_enabled(true);
  EXPECT_FALSE(
      Logger::Instance().set_sink_file("/nonexistent-dir/x/tmark.log"));
  EXPECT_FALSE(
      Logger::Instance().set_sink_file("/nonexistent-dir/y/tmark.log"));
  Registry::Instance().set_enabled(false);
  // Every failure is counted, even though the stderr warning is one-shot.
  EXPECT_EQ(Registry::Instance().GetCounter("obs.log.file_errors").value(),
            2);
  Registry::Instance().Reset();
}

TEST_F(LoggingTest, SinkWriteFailureIsCountedAndLoggerRecovers) {
  // /dev/full accepts the open but fails every write with ENOSPC —
  // exactly the silent-drop scenario the counter exists for.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available on this platform";
  }
  ASSERT_TRUE(Logger::Instance().set_sink_file("/dev/full"));
  Registry::Instance().Reset();
  Registry::Instance().set_enabled(true);
  Logger::Instance().set_level(LogLevel::kInfo);
  LogInfo("dropped.first");
  LogInfo("dropped.second");
  Registry::Instance().set_enabled(false);
  EXPECT_EQ(Registry::Instance().GetCounter("obs.log.file_errors").value(),
            2);
  Registry::Instance().Reset();
  // Re-pointing at a writable sink fully recovers.
  ASSERT_TRUE(Logger::Instance().set_sink_file(path_));
  LogInfo("recovered");
  EXPECT_NE(SinkContents().find("recovered"), std::string::npos);
}

}  // namespace
}  // namespace tmark::obs
