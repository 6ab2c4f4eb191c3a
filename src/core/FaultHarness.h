//===- core/FaultHarness.h - Differential fault-tolerance harness -*- C++ -*-===//
//
// Runs the scalar reference program and a FlexVec-vectorized program under
// the *same* seeded fault schedule and decides whether they reached
// equivalent architectural outcomes:
//
//  * both ran to completion with identical memory fingerprints and
//    live-out values (the injected faults were absorbed — clipped by
//    first-faulting loads, or retried/fallen-back around by the RTM
//    policy), or
//  * both stopped with the same well-formed fault report — same stop
//    reason and same faulting address. PCs and opcodes necessarily differ
//    between the two programs and are diagnostic context only.
//
// Address-deterministic range faults (see faults/FaultInjector.h) are what
// make the comparison meaningful: the same data addresses are poisoned no
// matter how the program orders or batches its accesses.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_FAULTHARNESS_H
#define FLEXVEC_CORE_FAULTHARNESS_H

#include "core/Evaluator.h"

#include <string>

namespace flexvec {
namespace core {

/// Verdict of a scalar-vs-vectorized differential run.
struct DiffVerdict {
  bool Equivalent = false;
  std::string Detail; ///< Why (not) equivalent, human-readable.
  FaultedRun Scalar;
  FaultedRun Vector;

  std::string describe() const;
};

/// Judges a scalar run against a vectorized run of the same inputs under
/// the same fault plan: equivalent when both completed with matching
/// outcomes (outcomesMatch: fingerprints and live-outs), or both stopped
/// with the same stop reason and fault address.
DiffVerdict judgeDifferential(const ir::LoopFunction &F, FaultedRun Scalar,
                              FaultedRun Vector);

/// Multi-invocation differential: \p ScalarCL and \p VectorCL each run the
/// whole invocation sequence under identical fault schedules, judged by
/// judgeDifferential (folded live-outs + final fingerprint).
DiffVerdict runDifferentialMulti(const ir::LoopFunction &F,
                                 const codegen::CompiledLoop &ScalarCL,
                                 const codegen::CompiledLoop &VectorCL,
                                 const mem::Memory &BaseImage,
                                 const std::vector<ir::Bindings> &Invocations,
                                 const FaultPlan &Plan);

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_FAULTHARNESS_H
