/**
 * @file
 * gem5-style status and error reporting.
 *
 * panic(): an internal invariant broke — a simulator bug. Throws
 * PanicError (rather than abort()) so tests can assert on invariants.
 * fatal(): the user asked for something impossible (bad config, model that
 * cannot fit under any policy). Throws FatalError without printing: whoever
 * catches it reports it once, with whatever context it adds (a tool names
 * itself, the trace reader the row).
 * warn()/inform(): advisory messages on stderr, never stop execution.
 */

#ifndef CAPU_SUPPORT_LOGGING_HH
#define CAPU_SUPPORT_LOGGING_HH

#include <stdexcept>
#include <string>

#include "support/strfmt.hh"

namespace capu
{

/** Raised by panic(): simulator self-check failure. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &what) : std::logic_error(what) {}
};

/** Raised by fatal(): unusable user configuration. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what) : std::runtime_error(what) {}
};

/** Global verbosity switch for inform()/warn(); default on. */
void setLogEnabled(bool enabled);
bool logEnabled();

namespace detail
{
void emit(const char *tag, const std::string &msg);
} // namespace detail

template <typename... Args>
[[noreturn]] void
panic(std::string_view spec, const Args &...args)
{
    auto msg = fmt(spec, args...);
    detail::emit("panic", msg);
    throw PanicError(msg);
}

template <typename... Args>
[[noreturn]] void
fatal(std::string_view spec, const Args &...args)
{
    throw FatalError(fmt(spec, args...));
}

template <typename... Args>
void
warn(std::string_view spec, const Args &...args)
{
    if (logEnabled())
        detail::emit("warn", fmt(spec, args...));
}

template <typename... Args>
void
inform(std::string_view spec, const Args &...args)
{
    if (logEnabled())
        detail::emit("info", fmt(spec, args...));
}

} // namespace capu

#endif // CAPU_SUPPORT_LOGGING_HH
