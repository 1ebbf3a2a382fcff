/**
 * @file
 * Tiny declarative command-line flag parser.
 *
 * The whisper_cli subcommands used to hand-roll the same
 * strcmp/strtoull chains per command; this helper expresses each
 * subcommand as a table of flag bindings plus positional arguments.
 * It intentionally supports only what the CLI needs — `--flag value`
 * pairs (no `=` syntax, matching the historical surface), valueless
 * boolean switches, and free positionals — and reports the first
 * error as a message the caller prints before its usage text.
 */

#ifndef WHISPER_COMMON_FLAGS_HH
#define WHISPER_COMMON_FLAGS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace whisper
{

/** Parse a u64 (decimal, or hex with 0x); false on garbage. */
bool parseU64(const char *s, std::uint64_t &out);

/**
 * Split @p s at every @p sep, appending the fields to @p out; false
 * when any field (or @p s itself) is empty.
 */
bool splitList(const char *s, char sep, std::vector<std::string> &out);

/**
 * One subcommand's flag table. Bind flags, then parse():
 *
 *   FlagParser fp;
 *   fp.u64("--ops", &ops, 1).flag("--json", &json);
 *   if (!fp.parse(argc, argv)) { print fp.error(); return usage(); }
 *
 * Flags may interleave with positionals but each may be given at most
 * once — a repeated flag is an error, not a silent last-one-wins (a
 * doubled flag in a pasted reproducer command is almost always an
 * editing mistake worth hearing about). command() names the
 * subcommand so every error message says which flag table rejected
 * the input.
 */
class FlagParser
{
  public:
    /** Handler for custom(): parses the value, false = bad value. */
    using Handler = std::function<bool(const char *value)>;

    /** Subcommand name prefixed onto every error() message. */
    FlagParser &command(const char *name);

    /** Valueless switch: presence sets @p out to true. */
    FlagParser &flag(const char *name, bool *out);

    /** u64 value (parseU64 syntax), rejected when below @p min. */
    FlagParser &u64(const char *name, std::uint64_t *out,
                    std::uint64_t min = 0);

    /** Like u64() but narrowing into an unsigned. */
    FlagParser &u32(const char *name, unsigned *out,
                    unsigned min = 0);

    /** A size given in MiB, stored in bytes. */
    FlagParser &megabytes(const char *name, std::size_t *out,
                          std::size_t min_mb = 1);

    /** Raw string value. */
    FlagParser &str(const char *name, const char **out);

    /** Value handed to @p fn (validation/decoding on the caller). */
    FlagParser &custom(const char *name, Handler fn);

    /** Cap on positional (non-flag) arguments; default unlimited. */
    FlagParser &maxPositionals(std::size_t n);

    /**
     * Parse argv[start..argc). Returns false on an unknown flag, a
     * missing or invalid value, or excess positionals; error() then
     * describes the failure.
     */
    bool parse(int argc, char **argv, int start = 2);

    const std::vector<const char *> &positionals() const
    {
        return positionals_;
    }
    const std::string &error() const { return error_; }

  private:
    struct Spec
    {
        std::string name;
        bool takesValue = true;
        Handler handler;
        bool seen = false; //!< reset by parse(); repeats are errors
    };

    FlagParser &add(const char *name, bool takes_value, Handler fn);
    bool fail(std::string msg);

    std::vector<Spec> specs_;
    std::vector<const char *> positionals_;
    std::size_t maxPositionals_ = ~std::size_t(0);
    std::string command_;
    std::string error_;
};

} // namespace whisper

#endif // WHISPER_COMMON_FLAGS_HH
