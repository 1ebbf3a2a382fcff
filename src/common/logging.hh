/**
 * @file
 * Status and error reporting in the gem5 idiom.
 *
 * panic() is for internal invariant violations (a bug in this suite);
 * fatal() is for user/configuration errors; warn()/inform() report
 * conditions without stopping execution.
 */

#ifndef WHISPER_COMMON_LOGGING_HH
#define WHISPER_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace whisper
{

/** Severity attached to each log record. */
enum class LogLevel { Inform, Warn, Fatal, Panic };

namespace detail
{
/** Emit one formatted record to stderr and handle termination. */
[[noreturn]] void logFatal(LogLevel level, const char *file, int line,
                           const std::string &msg);
void logNote(LogLevel level, const std::string &msg);
std::string formatv(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));
} // namespace detail

} // namespace whisper

/** Abort: an invariant inside the suite itself was violated. */
#define panic(...)                                                         \
    ::whisper::detail::logFatal(::whisper::LogLevel::Panic, __FILE__,      \
                                __LINE__,                                  \
                                ::whisper::detail::formatv(__VA_ARGS__))

/** Exit(1): the user asked for something unsupported or inconsistent. */
#define fatal(...)                                                         \
    ::whisper::detail::logFatal(::whisper::LogLevel::Fatal, __FILE__,      \
                                __LINE__,                                  \
                                ::whisper::detail::formatv(__VA_ARGS__))

/** Continue, but flag possibly incorrect behaviour. */
#define warn(...)                                                          \
    ::whisper::detail::logNote(::whisper::LogLevel::Warn,                  \
                               ::whisper::detail::formatv(__VA_ARGS__))

/** Continue; purely informational. */
#define inform(...)                                                        \
    ::whisper::detail::logNote(::whisper::LogLevel::Inform,                \
                               ::whisper::detail::formatv(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define panic_if(cond, ...)                                                \
    do {                                                                   \
        if (cond)                                                          \
            panic(__VA_ARGS__);                                            \
    } while (0)

#endif // WHISPER_COMMON_LOGGING_HH
