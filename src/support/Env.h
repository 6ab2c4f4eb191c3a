//===- support/Env.h - FLEXVEC_* environment knobs --------------*- C++ -*-===//
//
// Shared reading and rejection for the run knobs taken from the
// environment. A set-but-empty variable means unset (CI exports empty
// values on legs that do not pin a knob); any other value must parse, or
// the process stops naming the variable and what it accepts.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SUPPORT_ENV_H
#define FLEXVEC_SUPPORT_ENV_H

#include <cstdio>
#include <cstdlib>

namespace flexvec {

/// The value of environment variable \p Name, or nullptr when it is unset
/// or empty.
inline const char *envValue(const char *Name) {
  const char *V = std::getenv(Name);
  return V && *V ? V : nullptr;
}

/// Reports a malformed environment value and exits with status 2, the
/// tools' usage-error status. Knobs resolve lazily, possibly on a worker
/// thread, so this uses _Exit: no static destructors run under live
/// threads.
[[noreturn]] inline void rejectEnv(const char *Name, const char *Value,
                                   const char *Accepted) {
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", Name, Accepted,
               Value);
  std::fflush(stderr);
  std::_Exit(2);
}

} // namespace flexvec

#endif // FLEXVEC_SUPPORT_ENV_H
