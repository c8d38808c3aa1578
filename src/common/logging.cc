#include "common/logging.h"

#include <atomic>

namespace sam::internal {

namespace {
std::atomic<int> g_min_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}
}  // namespace

void SetMinLogLevel(LogLevel level) { g_min_level.store(static_cast<int>(level)); }

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(static_cast<int>(level) >= g_min_level.load() ||
               level == LogLevel::kFatal) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    stream_ << "\n";
    std::cerr << stream_.str();
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace sam::internal
