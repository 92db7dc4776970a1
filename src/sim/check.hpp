/**
 * @file
 * Structured-error core of the simulation integrity layer.
 *
 * Simulator state is cheap to corrupt and expensive to debug: a bare
 * `assert` vanishes in release builds and a bare `throw` loses the
 * machine state that explains the failure. SIM_CHECK / SIM_INVARIANT
 * stay active in every build type and throw a SimError carrying the
 * cycle, SM, kernel and module in which the violation was detected,
 * plus a free-form detail message.
 *
 *   SIM_CHECK(cond, ctx, "detail " << value);      // precondition
 *   SIM_INVARIANT(cond, ctx, "detail " << value);  // state invariant
 *
 * The distinction is diagnostic only: a failed SIM_CHECK means a
 * caller handed a component something illegal; a failed SIM_INVARIANT
 * means the component's own state went inconsistent (a model bug).
 */

#ifndef CKESIM_SIM_CHECK_HPP
#define CKESIM_SIM_CHECK_HPP

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/types.hpp"

namespace ckesim {

/** Machine context attached to every integrity failure. */
struct SimCtx
{
    Cycle cycle = kNeverCycle;        ///< kNeverCycle = unknown/untimed
    SmId sm_id = kInvalidSm;          ///< kInvalidSm = not SM-specific
    KernelId kernel = kInvalidKernel; ///< kInvalidKernel = none
    const char *module = "";          ///< e.g. "l1d", "gpu.watchdog"
};

/** A detected integrity violation, with full machine context. */
class SimError : public std::runtime_error
{
  public:
    SimError(const char *kind, const char *expr, const SimCtx &ctx,
             const std::string &detail);

    const SimCtx &ctx() const { return ctx_; }
    /** "SIM_CHECK", "SIM_INVARIANT", "ConfigError", "Watchdog", ... */
    const std::string &kind() const { return kind_; }
    /** The failed condition's source text ("" for non-macro sites). */
    const std::string &expr() const { return expr_; }
    /** The free-form detail message without the context prefix. */
    const std::string &detail() const { return detail_; }

  private:
    SimCtx ctx_;
    std::string kind_;
    std::string expr_;
    std::string detail_;
};

/** Format @p ctx as "[cycle=... sm=... kernel=... module=...]". */
std::string formatSimCtx(const SimCtx &ctx);

/** Throw a SimError directly (for non-condition failure sites). */
[[noreturn]] void raiseSimError(const char *kind, const SimCtx &ctx,
                                const std::string &detail);

namespace detail {

/**
 * The failure half of SIM_CHECK / SIM_INVARIANT: formats the detail
 * through @p detail (an `std::ostream &` sink) and throws. Kept out of
 * line and cold so a passing check costs its caller one branch and
 * the ostringstream never lands on the hot path.
 */
template <class Detail>
[[noreturn, gnu::cold, gnu::noinline]] void
failCheck(const char *kind, const char *expr, const SimCtx &ctx,
          const Detail &detail)
{
    std::ostringstream os;
    detail(os);
    throw SimError(kind, expr, ctx, os.str());
}

} // namespace detail

} // namespace ckesim

/** The one body of SIM_CHECK and SIM_INVARIANT. */
#define CKESIM_CHECK_BODY(kind, cond, expr, ctx, msg)                  \
    do {                                                               \
        if (!(cond)) [[unlikely]] {                                    \
            ::ckesim::detail::failCheck(                               \
                kind, expr, (ctx),                                     \
                [&](::std::ostream &sim_check_os_) {                   \
                    sim_check_os_ << msg;                              \
                });                                                    \
        }                                                              \
    } while (0)

/** Always-on precondition check; throws SimError with context. */
#define SIM_CHECK(cond, ctx, msg)                                      \
    CKESIM_CHECK_BODY("SIM_CHECK", cond, #cond, ctx, msg)

/** Always-on state invariant; throws SimError with context. */
#define SIM_INVARIANT(cond, ctx, msg)                                  \
    CKESIM_CHECK_BODY("SIM_INVARIANT", cond, #cond, ctx, msg)

#endif // CKESIM_SIM_CHECK_HPP
