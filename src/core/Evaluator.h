//===- core/Evaluator.h - The program runner --------------------*- C++ -*-===//
//
// The one way to execute a compiled loop: runProgramMultiWithFaults runs a
// program variant on the functional emulator against a cloned memory image,
// optionally under a seeded fault plan and with a trace sink attached (an
// sim::OooCore sink turns the run into a timing measurement). Its outcome
// is compared with the IR reference interpreter's (runReferenceMulti) by
// outcomesMatch. Also implements the paper's coverage scaling: hot-region
// speedups are scaled down by the region's contribution to total program
// execution (Section 5).
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_EVALUATOR_H
#define FLEXVEC_CORE_EVALUATOR_H

#include "codegen/Compiled.h"
#include "driver/AdaptiveStrategy.h"
#include "emu/Machine.h"
#include "faults/FaultInjector.h"
#include "ir/Interp.h"

#include <string>
#include <vector>

namespace flexvec {
namespace core {

/// Result of one program (or reference) execution.
struct RunOutcome {
  bool Ok = false; ///< Every invocation ran to completion.
  /// Machine runs only: the last invocation's result (the failing one,
  /// with its stop reason, fault address, PC, opcode and abort history),
  /// with Stats merged over every invocation.
  emu::ExecResult Exec;
  rtm::TxStats Tx;                ///< Transaction-unit stats (machine runs).
  mem::MemoryStats Mem;           ///< Image TLB/COW stats (machine runs).
  uint64_t MemFingerprint = 0;    ///< Final memory image digest.
  std::vector<int64_t> LiveOuts;  ///< Raw live-out scalar values, in
                                  ///< scalar-parameter order.
  uint64_t LiveOutHash = 0; ///< Folded live-outs across multi-invocations.
  /// flexvec-adaptive runs only (HasDispatch): the dispatch-cell counters
  /// read back after the final invocation.
  driver::DispatchCounts Dispatch;
  bool HasDispatch = false;
  std::string Error;
};

/// Everything injected into one execution, plus the run limits.
struct FaultPlan {
  faults::MemFaultPlan Mem;
  faults::TxFaultPlan Tx;
  /// Budget, RTM retry policy and SIMD backend: the same struct a plain
  /// run takes, so FLEXVEC_RTM_RETRIES and FLEXVEC_SIMD reach fault runs
  /// too (SimdEquivalenceTest pins Limits.Simd per backend).
  emu::RunLimits Limits;
};

/// One execution under injection: the usual outcome plus what was
/// actually injected and how the transaction unit fared.
struct FaultedRun {
  RunOutcome Outcome;
  faults::InjectorStats Injection;
  rtm::TxStats Tx;

  /// Structured one-line fault report (stop reason, fault address, PC,
  /// opcode, abort history).
  std::string report() const;
};

/// Runs \p CL once per element of \p Invocations against one persistent
/// clone of \p BaseImage (mutations carry across invocations, like repeated
/// calls into a hot loop); registers are reset and rebound per invocation
/// and the run stops at the first invocation that does not halt.
/// LiveOutHash folds every invocation's live-outs. A FaultInjector is armed
/// across every invocation only when \p Plan injects something (so a
/// bounded TxFaultPlan models a storm that eventually ends). The adaptive
/// dispatch cell is mapped before the first invocation and read back and
/// unmapped before the fingerprint; Outcome.Mem is read before that
/// read-back, so it counts program accesses only. \p Sink optionally
/// receives the dynamic instruction trace.
FaultedRun runProgramMultiWithFaults(
    const ir::LoopFunction &F, const codegen::CompiledLoop &CL,
    const mem::Memory &BaseImage, const std::vector<ir::Bindings> &Invocations,
    const FaultPlan &Plan, emu::TraceSink *Sink = nullptr);

/// runProgramMultiWithFaults with nothing injected and default limits
/// apart from the per-invocation instruction budget.
RunOutcome runProgramMulti(const ir::LoopFunction &F,
                           const codegen::CompiledLoop &CL,
                           const mem::Memory &BaseImage,
                           const std::vector<ir::Bindings> &Invocations,
                           emu::TraceSink *Sink = nullptr,
                           uint64_t MaxInstructionsPerRun = 1ULL << 32);

/// Runs the IR reference interpreter over \p Invocations on one clone of
/// \p BaseImage; the counterpart of runProgramMulti.
RunOutcome runReferenceMulti(const ir::LoopFunction &F,
                             const mem::Memory &BaseImage,
                             const std::vector<ir::Bindings> &Invocations);

/// True when two outcomes agree on memory and live-outs.
bool outcomesMatch(const ir::LoopFunction &F, const RunOutcome &A,
                   const RunOutcome &B);

/// Amdahl scaling used in Section 5: overall = 1 / (1 - c + c / s).
double coverageScaledSpeedup(double HotSpeedup, double Coverage);

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_EVALUATOR_H
