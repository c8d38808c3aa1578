#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace sam {

/// \brief Severity levels for the lightweight logger.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kFatal = 4 };

namespace internal {

/// Sets the minimum level that is emitted.
void SetMinLogLevel(LogLevel level);

/// \brief Stream-style log sink that flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal

/// \brief Globally raises/lowers logging verbosity.
inline void SetLogLevel(LogLevel level) { internal::SetMinLogLevel(level); }

}  // namespace sam

#define SAM_LOG(level) \
  ::sam::internal::LogMessage(::sam::LogLevel::k##level, __FILE__, __LINE__)

/// Hard invariant check; aborts with a message when violated. Active in all
/// build types (database-style defensive programming for logic errors).
#define SAM_CHECK(cond)                                                      \
  if (!(cond))                                                               \
  ::sam::internal::LogMessage(::sam::LogLevel::kFatal, __FILE__, __LINE__)   \
      << "Check failed: " #cond " "

#define SAM_CHECK_EQ(a, b) SAM_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define SAM_CHECK_NE(a, b) SAM_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define SAM_CHECK_LT(a, b) SAM_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define SAM_CHECK_LE(a, b) SAM_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define SAM_CHECK_GT(a, b) SAM_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define SAM_CHECK_GE(a, b) SAM_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "
