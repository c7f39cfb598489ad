/**
 * @file
 * Status and error reporting. Bad input (a config value, a workload
 * spec, a trace file, a machine too small for its job) throws a typed
 * error -- ConfigError below, WorkloadError or the sweep's BindError /
 * ManifestError -- so a sweep fails that one job and keeps going.
 * NEUMMU_ASSERT/NEUMMU_PANIC abort on simulator bugs only; the
 * exit(1) macro belongs in main()-level code alone.
 * warn()/inform() print status messages.
 */

#ifndef NEUMMU_COMMON_LOGGING_HH
#define NEUMMU_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace neummu {

/**
 * A configuration value the simulator cannot run with (zero walkers,
 * an empty memory node, an unsupported page size) or a machine that
 * runs out of a resource mid-run. Thrown by every layer below the
 * workloads; the message names the offending key or parameter.
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Verbosity levels for inform(). */
enum class LogLevel { Quiet = 0, Normal = 1, Verbose = 2 };

/** Global log verbosity (default Normal). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

namespace detail {
[[noreturn]] void exitWithMessage(const char *prefix, const std::string &msg,
                                  const char *file, int line, bool do_abort);
void message(const char *prefix, const std::string &msg);
} // namespace detail

/**
 * Report an internal simulator invariant violation and abort.
 * Use only for conditions that indicate a bug in the simulator itself.
 */
#define NEUMMU_PANIC(msg)                                                     \
    ::neummu::detail::exitWithMessage("panic", (msg), __FILE__, __LINE__,     \
                                      true)

/**
 * Report an unrecoverable command-line error and exit(1). For main()
 * of a CLI only; library code throws ConfigError instead.
 */
#define NEUMMU_FATAL(msg)                                                     \
    ::neummu::detail::exitWithMessage("fatal", (msg), __FILE__, __LINE__,     \
                                      false)

/** Runtime-checked invariant (enabled in all build types). */
#define NEUMMU_ASSERT(cond, msg)                                              \
    do {                                                                      \
        if (!(cond)) {                                                        \
            NEUMMU_PANIC(std::string("assertion failed: ") + #cond + ": " +   \
                         (msg));                                              \
        }                                                                     \
    } while (0)

/** Non-fatal warning. */
void warn(const std::string &msg);

/** Informational status message, gated on the global log level. */
void inform(const std::string &msg);

} // namespace neummu

#endif // NEUMMU_COMMON_LOGGING_HH
