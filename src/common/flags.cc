#include "common/flags.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace whisper
{

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (!s || !*s)
        return false;
    char *end = nullptr;
    errno = 0;
    // Base 0: plain decimal plus 0x-prefixed hex — crashfuzz replay
    // commands round-trip seeds and schedules in hex.
    const unsigned long long v = std::strtoull(s, &end, 0);
    if (errno != 0 || end == s || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
splitList(const char *s, char sep, std::vector<std::string> &out)
{
    if (!s)
        return false;
    for (const char *p = s;;) {
        const char *end = std::strchr(p, sep);
        const std::size_t n = end ? end - p : std::strlen(p);
        if (n == 0)
            return false;
        out.emplace_back(p, n);
        if (!end)
            return true;
        p = end + 1;
    }
}

FlagParser &
FlagParser::add(const char *name, bool takes_value, Handler fn)
{
    specs_.push_back(Spec{name, takes_value, std::move(fn)});
    return *this;
}

FlagParser &
FlagParser::flag(const char *name, bool *out)
{
    return add(name, false, [out](const char *) {
        *out = true;
        return true;
    });
}

FlagParser &
FlagParser::u64(const char *name, std::uint64_t *out, std::uint64_t min)
{
    return add(name, true, [out, min](const char *v) {
        std::uint64_t parsed = 0;
        if (!parseU64(v, parsed) || parsed < min)
            return false;
        *out = parsed;
        return true;
    });
}

FlagParser &
FlagParser::u32(const char *name, unsigned *out, unsigned min)
{
    return add(name, true, [out, min](const char *v) {
        std::uint64_t parsed = 0;
        if (!parseU64(v, parsed) || parsed < min ||
            parsed > ~0u)
            return false;
        *out = static_cast<unsigned>(parsed);
        return true;
    });
}

FlagParser &
FlagParser::megabytes(const char *name, std::size_t *out,
                      std::size_t min_mb)
{
    return add(name, true, [out, min_mb](const char *v) {
        std::uint64_t mb = 0;
        if (!parseU64(v, mb) || mb < min_mb)
            return false;
        *out = static_cast<std::size_t>(mb) << 20;
        return true;
    });
}

FlagParser &
FlagParser::str(const char *name, const char **out)
{
    return add(name, true, [out](const char *v) {
        *out = v;
        return true;
    });
}

FlagParser &
FlagParser::custom(const char *name, Handler fn)
{
    return add(name, true, std::move(fn));
}

FlagParser &
FlagParser::maxPositionals(std::size_t n)
{
    maxPositionals_ = n;
    return *this;
}

FlagParser &
FlagParser::command(const char *name)
{
    command_ = name;
    return *this;
}

bool
FlagParser::fail(std::string msg)
{
    error_ = command_.empty() ? std::move(msg)
                              : command_ + ": " + msg;
    return false;
}

bool
FlagParser::parse(int argc, char **argv, int start)
{
    positionals_.clear();
    error_.clear();
    for (Spec &s : specs_)
        s.seen = false;
    for (int i = start; i < argc; i++) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--", 2) != 0) {
            if (positionals_.size() >= maxPositionals_)
                return fail(std::string("unexpected argument '") +
                            arg + "'");
            positionals_.push_back(arg);
            continue;
        }
        Spec *spec = nullptr;
        for (Spec &s : specs_) {
            if (s.name == arg) {
                spec = &s;
                break;
            }
        }
        if (!spec)
            return fail(std::string("unknown flag '") + arg + "'");
        if (spec->seen)
            return fail(std::string("flag '") + arg +
                        "' given twice");
        spec->seen = true;
        if (!spec->takesValue) {
            spec->handler(nullptr);
            continue;
        }
        if (i + 1 >= argc)
            return fail(std::string("missing value for ") + arg);
        const char *value = argv[++i];
        if (!spec->handler(value))
            return fail(std::string("bad value for ") + arg + ": '" +
                        value + "'");
    }
    return true;
}

} // namespace whisper
