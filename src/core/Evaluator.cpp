//===- core/Evaluator.cpp -------------------------------------------------===//

#include "core/Evaluator.h"

#include "support/Hash.h"

#include <cassert>

using namespace flexvec;
using namespace flexvec::core;
using namespace flexvec::ir;

namespace {

/// Maps the adaptive dispatch-cell page when \p CL is a flexvec-adaptive
/// program (no-op otherwise); the cell starts zeroed (promoted state).
void setUpDispatchCell(const codegen::CompiledLoop &CL, mem::Memory &M) {
  if (CL.Kind != codegen::CodeGenKind::FlexVecAdaptive)
    return;
  M.map(driver::dispatch::CellAddr, driver::dispatch::CellSize);
}

/// Reads the dispatch counters back into \p Out and unmaps the cell page
/// (so fingerprints stay comparable with the scalar reference). Returns
/// true when \p CL is flexvec-adaptive.
bool tearDownDispatchCell(const codegen::CompiledLoop &CL, mem::Memory &M,
                          driver::DispatchCounts &Out) {
  if (CL.Kind != codegen::CodeGenKind::FlexVecAdaptive)
    return false;
  const uint64_t Base = driver::dispatch::CellAddr;
  const auto Rd = [&](int64_t Off) {
    return static_cast<uint64_t>(
        M.get<int64_t>(Base + static_cast<uint64_t>(Off)));
  };
  Out.State = Rd(driver::dispatch::StateOff);
  Out.Invocations = Rd(driver::dispatch::InvocationsOff);
  Out.AbortedInvocations = Rd(driver::dispatch::AbortedOff);
  Out.AbortEvents = Rd(driver::dispatch::AbortEventsOff);
  Out.GuardPass = Rd(driver::dispatch::GuardPassOff);
  Out.GuardFail = Rd(driver::dispatch::GuardFailOff);
  Out.Demotions = Rd(driver::dispatch::DemotionsOff);
  M.unmap(Base, driver::dispatch::CellSize);
  return true;
}

/// Stores one completed invocation's scalar values and folds its live-outs
/// into the outcome's running hash.
void recordLiveOuts(const LoopFunction &F, RunOutcome &Out,
                    std::vector<int64_t> Values) {
  Out.LiveOuts = std::move(Values);
  for (size_t S = 0; S < F.scalars().size(); ++S)
    if (F.scalar(S).IsLiveOut)
      Out.LiveOutHash = hashCombine(Out.LiveOutHash,
                                    static_cast<uint64_t>(Out.LiveOuts[S]));
}

} // namespace

std::string FaultedRun::report() const {
  std::string S = Outcome.Exec.describe();
  S += "; injected mem=" + std::to_string(Injection.MemFaultsInjected) +
       " tx=" + std::to_string(Injection.TxAbortsInjected);
  return S;
}

FaultedRun core::runProgramMultiWithFaults(
    const LoopFunction &F, const codegen::CompiledLoop &CL,
    const mem::Memory &BaseImage, const std::vector<Bindings> &Invocations,
    const FaultPlan &Plan, emu::TraceSink *Sink) {
  FaultedRun Run;
  RunOutcome &Out = Run.Outcome;
  Out.Ok = true;
  mem::Memory M = BaseImage.clone();
  setUpDispatchCell(CL, M);
  emu::Machine Machine(M);
  faults::FaultInjector Injector(Plan.Mem, Plan.Tx);
  if (Plan.Mem.enabled() || Plan.Tx.enabled())
    Injector.arm(M, &Machine.tx());

  emu::ExecStats Total;
  for (const Bindings &B : Invocations) {
    Machine.resetRegisters();
    for (size_t S = 0; S < B.ScalarValues.size(); ++S)
      Machine.setScalar(codegen::scalarParamReg(static_cast<int>(S)).Index,
                        B.ScalarValues[S]);
    for (size_t A = 0; A < B.ArrayBases.size(); ++A)
      Machine.setScalar(codegen::arrayBaseReg(static_cast<int>(A)).Index,
                        static_cast<int64_t>(B.ArrayBases[A]));
    Out.Exec = Machine.run(CL.Prog, Plan.Limits, Sink);
    Total.merge(Out.Exec.Stats);
    if (Out.Exec.Reason != emu::StopReason::Halted) {
      Out.Ok = false;
      Out.Error = "invocation failed: " + Out.Exec.describe();
      break;
    }
    std::vector<int64_t> Values(B.ScalarValues.size());
    for (size_t S = 0; S < Values.size(); ++S)
      Values[S] = Machine.getScalar(
          codegen::scalarParamReg(static_cast<int>(S)).Index);
    recordLiveOuts(F, Out, std::move(Values));
  }
  Out.Exec.Stats = Total;

  // Stats first: the dispatch-cell read-back below goes through the TLB
  // and is harness traffic, not program traffic.
  Out.Tx = Machine.txStats();
  Out.Mem = M.stats();
  Injector.disarm();
  Out.HasDispatch = tearDownDispatchCell(CL, M, Out.Dispatch);
  Out.MemFingerprint = M.fingerprint();
  Run.Injection = Injector.stats();
  Run.Tx = Out.Tx;
  return Run;
}

RunOutcome core::runProgramMulti(const LoopFunction &F,
                                 const codegen::CompiledLoop &CL,
                                 const mem::Memory &BaseImage,
                                 const std::vector<Bindings> &Invocations,
                                 emu::TraceSink *Sink,
                                 uint64_t MaxInstructionsPerRun) {
  FaultPlan Plan;
  Plan.Limits.MaxInstructions = MaxInstructionsPerRun;
  return runProgramMultiWithFaults(F, CL, BaseImage, Invocations, Plan, Sink)
      .Outcome;
}

RunOutcome core::runReferenceMulti(const LoopFunction &F,
                                   const mem::Memory &BaseImage,
                                   const std::vector<Bindings> &Invocations) {
  RunOutcome Out;
  Out.Ok = true;
  mem::Memory M = BaseImage.clone();
  Interpreter Interp(M);
  for (const Bindings &B : Invocations) {
    Bindings Work = B;
    InterpResult R = Interp.run(F, Work);
    if (R.Faulted) {
      Out.Ok = false;
      Out.Error = "reference memory fault at address " +
                  std::to_string(R.FaultAddr);
      break;
    }
    recordLiveOuts(F, Out, std::move(Work.ScalarValues));
  }
  Out.MemFingerprint = M.fingerprint();
  return Out;
}

bool core::outcomesMatch(const LoopFunction &F, const RunOutcome &A,
                         const RunOutcome &B) {
  if (!A.Ok || !B.Ok)
    return false;
  if (A.MemFingerprint != B.MemFingerprint)
    return false;
  if (A.LiveOutHash != B.LiveOutHash)
    return false;
  assert(A.LiveOuts.size() == B.LiveOuts.size());
  for (size_t S = 0; S < F.scalars().size(); ++S) {
    if (!F.scalar(S).IsLiveOut)
      continue;
    if (A.LiveOuts[S] != B.LiveOuts[S])
      return false;
  }
  return true;
}

double core::coverageScaledSpeedup(double HotSpeedup, double Coverage) {
  assert(HotSpeedup > 0 && Coverage >= 0 && Coverage <= 1);
  return 1.0 / (1.0 - Coverage + Coverage / HotSpeedup);
}
