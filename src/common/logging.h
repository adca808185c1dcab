// Minimal logging and invariant-checking facilities.
//
// The library is exercised both from tests (where a failed invariant should abort with a
// message) and from long benchmark sweeps (where logging must be cheap when disabled). We keep
// this deliberately small: stream-style log lines with a global severity threshold, plus
// CHECK/DCHECK macros that abort on violated invariants.
#ifndef DISTSERVE_COMMON_LOGGING_H_
#define DISTSERVE_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace distserve {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Returns the current global log threshold. Messages below it are discarded.
LogLevel GetLogLevel();

// Sets the global log threshold (e.g. LogLevel::kWarning to silence info logs in benches).
void SetLogLevel(LogLevel level);

namespace internal {

// One log statement. Accumulates the message in a stringstream and emits it (with severity tag)
// on destruction; aborts the process for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Swallows a stream expression without evaluating it; used for compiled-out DCHECKs.
struct NullStream {
  template <typename T>
  NullStream& operator<<(const T&) {
    return *this;
  }
};

struct Voidify {
  void operator&(std::ostream&) {}
  void operator&(const NullStream&) {}
};

}  // namespace internal

#define DS_LOG(level)                                                                     \
  (::distserve::LogLevel::k##level < ::distserve::GetLogLevel())                          \
      ? (void)0                                                                           \
      : ::distserve::internal::Voidify() &                                                \
            ::distserve::internal::LogMessage(::distserve::LogLevel::k##level, __FILE__,  \
                                              __LINE__)                                   \
                .stream()

// CHECK aborts (with the expression and any streamed context) when `cond` is false.
#define DS_CHECK(cond)                                                                       \
  (cond) ? (void)0                                                                          \
         : ::distserve::internal::Voidify() &                                               \
               ::distserve::internal::LogMessage(::distserve::LogLevel::kFatal, __FILE__,   \
                                                 __LINE__)                                  \
                   .stream()                                                                \
               << "Check failed: " #cond " "

#define DS_CHECK_OP(op, a, b)                                                     \
  DS_CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "

#define DS_CHECK_EQ(a, b) DS_CHECK_OP(==, a, b)
#define DS_CHECK_NE(a, b) DS_CHECK_OP(!=, a, b)
#define DS_CHECK_LT(a, b) DS_CHECK_OP(<, a, b)
#define DS_CHECK_LE(a, b) DS_CHECK_OP(<=, a, b)
#define DS_CHECK_GT(a, b) DS_CHECK_OP(>, a, b)
#define DS_CHECK_GE(a, b) DS_CHECK_OP(>=, a, b)

// DCHECK is CHECK in debug builds and compiles out under NDEBUG. It guards internal
// invariants only (step runs, the KV table, the event queue, the simulator's clock). Anything
// a caller passes in (arguments, configs, traces) is checked with DS_CHECK instead, so bad
// input fails loudly in every build.
#ifdef NDEBUG
#define DS_DCHECK(cond) \
  true ? (void)0 : ::distserve::internal::Voidify() & ::distserve::internal::NullStream()
#else
#define DS_DCHECK(cond) DS_CHECK(cond)
#endif

}  // namespace distserve

#endif  // DISTSERVE_COMMON_LOGGING_H_
