//===- core/FaultHarness.cpp ----------------------------------------------===//

#include "core/FaultHarness.h"

using namespace flexvec;
using namespace flexvec::core;

DiffVerdict core::judgeDifferential(const ir::LoopFunction &F,
                                    FaultedRun Scalar, FaultedRun Vector) {
  DiffVerdict V;
  V.Scalar = std::move(Scalar);
  V.Vector = std::move(Vector);

  const RunOutcome &A = V.Scalar.Outcome;
  const RunOutcome &C = V.Vector.Outcome;
  if (A.Ok && C.Ok) {
    if (outcomesMatch(F, A, C)) {
      V.Equivalent = true;
      V.Detail = "both completed; memory fingerprints and live-outs match";
    } else {
      V.Detail = "both completed but diverged: scalar mem=" +
                 std::to_string(A.MemFingerprint) +
                 " vector mem=" + std::to_string(C.MemFingerprint);
    }
    return V;
  }
  if (!A.Ok && !C.Ok) {
    if (A.Exec.Reason == C.Exec.Reason &&
        A.Exec.FaultAddr == C.Exec.FaultAddr) {
      V.Equivalent = true;
      V.Detail = std::string("both stopped with the same fault report: ") +
                 emu::stopReasonName(A.Exec.Reason) + " at addr " +
                 std::to_string(A.Exec.FaultAddr);
    } else {
      V.Detail = "fault reports differ: scalar{" + A.Exec.describe() +
                 "} vector{" + C.Exec.describe() + "}";
    }
    return V;
  }
  V.Detail = std::string("only one execution survived: scalar ") +
             (A.Ok ? "completed" : A.Exec.describe()) + ", vector " +
             (C.Ok ? "completed" : C.Exec.describe());
  return V;
}

DiffVerdict core::runDifferentialMulti(
    const ir::LoopFunction &F, const codegen::CompiledLoop &ScalarCL,
    const codegen::CompiledLoop &VectorCL, const mem::Memory &BaseImage,
    const std::vector<ir::Bindings> &Invocations, const FaultPlan &Plan) {
  return judgeDifferential(
      F, runProgramMultiWithFaults(F, ScalarCL, BaseImage, Invocations, Plan),
      runProgramMultiWithFaults(F, VectorCL, BaseImage, Invocations, Plan));
}

std::string DiffVerdict::describe() const {
  std::string S = Equivalent ? "EQUIVALENT: " : "DIVERGED: ";
  S += Detail;
  S += "\n  scalar: " + Scalar.report();
  S += "\n  vector: " + Vector.report();
  return S;
}
