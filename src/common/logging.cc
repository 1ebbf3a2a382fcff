#include "common/logging.hh"

#include <cstdarg>
#include <mutex>

namespace whisper
{

namespace
{
std::mutex logMutex;

const char *
levelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Inform: return "info";
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}
} // namespace

namespace detail
{

std::string
formatv(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (n > 0) {
        out.resize(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args);
        out.resize(static_cast<std::size_t>(n));
    }
    va_end(args);
    return out;
}

void
logNote(LogLevel level, const std::string &msg)
{
    std::lock_guard<std::mutex> guard(logMutex);
    std::fprintf(stderr, "%s: %s\n", levelName(level), msg.c_str());
}

void
logFatal(LogLevel level, const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> guard(logMutex);
        std::fprintf(stderr, "%s: %s (%s:%d)\n", levelName(level),
                     msg.c_str(), file, line);
    }
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

} // namespace detail
} // namespace whisper
