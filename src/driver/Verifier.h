//===- driver/Verifier.h - Post-codegen Program verification ----*- C++ -*-===//
//
// Structural verification of finalized Programs: register-class and
// register-index validity per opcode, the mask-role conventions from
// codegen/Compiled.h (k0 is hard-wired all-ones and must never be written;
// first-faulting loads need a writable in/out mask), branch-target range
// checks, memory-scale validity, and program-termination invariants.
//
// The verifier is a diagnostic pass, not a sanitizer of emulator inputs:
// it reports convention violations that the emulator may happily execute
// (e.g. a vector op writing a reserved register) but that indicate a
// codegen bug. It runs on every compiled variant in debug builds and, via
// FLEXVEC_VERIFY=1, in the release CI jobs.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_DRIVER_VERIFIER_H
#define FLEXVEC_DRIVER_VERIFIER_H

#include "isa/Program.h"

#include <string>
#include <vector>

namespace flexvec {
namespace driver {

/// Checks \p Prog against the ISA operand contracts and the register-role
/// conventions. Returns one human-readable message per violation (empty
/// means the program verified clean). Messages name the instruction index
/// and its disassembly.
std::vector<std::string> verifyProgram(const isa::Program &Prog);

/// Whether the program-verify pass should run. FLEXVEC_VERIFY=1 turns it
/// on and FLEXVEC_VERIFY=0 off in every build; unset or empty means on in
/// !NDEBUG builds and off otherwise. Any other value exits 2.
bool verificationEnabled();

} // namespace driver
} // namespace flexvec

#endif // FLEXVEC_DRIVER_VERIFIER_H
