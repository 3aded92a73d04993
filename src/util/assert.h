// Internal invariant checks (message + expression), distinct from the
// always-on CTESIM_EXPECTS/CTESIM_ENSURES contracts in util/check.h:
// contracts guard the public API surface against caller mistakes; these
// macros guard *internal* invariants (engine time monotonicity, allocator
// bookkeeping) that are too hot or too internal to pay for in release.
//
// CTESIM_ASSERT(expr, msg)  — enabled whenever checks are enabled.
// CTESIM_DCHECK(expr, msg)  — same gate; spelled differently to mark
//                             checks cheap enough to consider always-on
//                             later. Both compile to nothing (expression
//                             unevaluated) when checks are off.
//
// Checks are ON in Debug builds (no NDEBUG) and whenever the build defines
// CTESIM_ENABLE_CHECKS — the CMake option CTESIM_CHECKS=ON does that, and
// CTESIM_SANITIZE presets turn it on automatically. Violations throw
// ctesim::ContractError (like the contract macros) so tests can assert on
// them without killing the test binary.
#pragma once

#include <sstream>
#include <string>

#include "util/check.h"

#if defined(CTESIM_ENABLE_CHECKS) || !defined(NDEBUG)
#define CTESIM_CHECKS_ENABLED 1
#else
#define CTESIM_CHECKS_ENABLED 0
#endif

namespace ctesim::detail {

[[noreturn]] inline void invariant_failure(const char* kind, const char* expr,
                                           const std::string& message,
                                           const char* file, int line) {
  std::ostringstream os;
  os << kind << " failed: " << expr << " — " << message << " (" << file << ":"
     << line << ")";
  throw ContractError(os.str());
}

}  // namespace ctesim::detail

#if CTESIM_CHECKS_ENABLED

#define CTESIM_ASSERT(expr, msg)                                      \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::ctesim::detail::invariant_failure("Invariant", #expr, (msg),  \
                                          __FILE__, __LINE__);        \
    }                                                                 \
  } while (false)

#define CTESIM_DCHECK(expr, msg)                                      \
  do {                                                                \
    if (!(expr)) {                                                    \
      ::ctesim::detail::invariant_failure("Debug check", #expr, (msg), \
                                          __FILE__, __LINE__);        \
    }                                                                 \
  } while (false)

#else  // checks compiled out: expression and message are not evaluated.

// sizeof keeps both operands referenced (no unused-variable warnings for
// names only a check reads) while leaving them unevaluated.
#define CTESIM_ASSERT(expr, msg) \
  do {                           \
    (void)sizeof(!(expr));       \
    (void)sizeof(msg);           \
  } while (false)
#define CTESIM_DCHECK(expr, msg) CTESIM_ASSERT(expr, msg)

#endif  // CTESIM_CHECKS_ENABLED
