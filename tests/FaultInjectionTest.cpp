//===- tests/FaultInjectionTest.cpp - Differential fault tolerance ---------===//
//
// The acceptance bar for the fault-injection subsystem: under a seeded
// fault schedule, scalar and FlexVec executions of the paper's three loop
// patterns (conditional scalar update, cross-iteration memory dependency,
// early termination) reach equivalent architectural outcomes — identical
// memory fingerprints and live-outs, or identical structured fault
// reports — and no injected fault (nested transactions, a thousand
// consecutive RTM aborts, ...) terminates the host process.
//
//===----------------------------------------------------------------------===//

#include "core/FaultHarness.h"
#include "core/ParallelEvaluator.h"
#include "core/Pipeline.h"
#include "emu/Machine.h"
#include "faults/FaultInjector.h"
#include "gen/Differential.h"
#include "gen/Gen.h"
#include "ir/Parser.h"
#include "isa/Program.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace flexvec;
using namespace flexvec::isa;

namespace {

/// One paper loop with generated inputs and every compiled variant.
struct LoopCase {
  std::string Name;
  std::unique_ptr<ir::LoopFunction> F;
  workloads::LoopInputs In;
  core::PipelineResult PR;
};

std::vector<LoopCase> buildPaperLoops(uint64_t Seed, int64_t N = 200) {
  std::vector<LoopCase> Cases;
  {
    LoopCase C;
    C.Name = "h264";
    C.F = workloads::buildH264Loop();
    Rng R(Seed);
    C.In = workloads::genH264Inputs(*C.F, R, N, /*UpdateProb=*/0.2);
    C.PR = core::compileLoop(*C.F);
    Cases.push_back(std::move(C));
  }
  {
    LoopCase C;
    C.Name = "conflict";
    C.F = workloads::buildConflictLoop();
    Rng R(Seed + 1);
    C.In = workloads::genConflictInputs(*C.F, R, N, /*ConflictProb=*/0.2);
    C.PR = core::compileLoop(*C.F);
    Cases.push_back(std::move(C));
  }
  {
    LoopCase C;
    C.Name = "early-exit";
    C.F = workloads::buildEarlyExitLoop();
    Rng R(Seed + 2);
    C.In = workloads::genEarlyExitInputs(*C.F, R, N, /*MatchPos=*/N - 20);
    C.PR = core::compileLoop(*C.F);
    Cases.push_back(std::move(C));
  }
  return Cases;
}

/// All vectorized variants of a case, labeled.
std::vector<std::pair<std::string, const codegen::CompiledLoop *>>
vectorVariants(const LoopCase &C) {
  std::vector<std::pair<std::string, const codegen::CompiledLoop *>> Out;
  if (C.PR.FlexVec)
    Out.push_back({"flexvec", &*C.PR.FlexVec});
  if (C.PR.FlexVecOpt)
    Out.push_back({"flexvec-opt", &*C.PR.FlexVecOpt});
  if (C.PR.Rtm)
    Out.push_back({"rtm", &*C.PR.Rtm});
  return Out;
}

} // namespace

TEST(FaultDifferential, CleanRunsAreEquivalent) {
  for (LoopCase &C : buildPaperLoops(11)) {
    core::FaultPlan Plan; // Nothing injected.
    for (auto &[VarName, CL] : vectorVariants(C)) {
      core::DiffVerdict V = core::runDifferentialMulti(
          *C.F, C.PR.Scalar, *CL, C.In.Image, {C.In.B}, Plan);
      EXPECT_TRUE(V.Equivalent)
          << C.Name << "/" << VarName << ": " << V.describe();
      EXPECT_TRUE(V.Scalar.Outcome.Ok);
      EXPECT_TRUE(V.Vector.Outcome.Ok);
    }
  }
}

// Persistent, address-deterministic range faults aimed at one array at a
// time: the same data addresses are poisoned in the scalar and the vector
// run, so either both executions absorb the faults (first-faulting clips,
// RTM fallback) and agree on final state, or both stop with the same
// fault report (reason + address).
TEST(FaultDifferential, PersistentRangeFaultsInEachArray) {
  uint64_t Injected = 0, Faulted = 0, Completed = 0;
  for (uint64_t Seed : {101u, 202u, 303u}) {
    for (LoopCase &C : buildPaperLoops(Seed)) {
      for (size_t Arr = 0; Arr < C.In.B.ArrayBases.size(); ++Arr) {
        uint64_t Base = C.In.B.ArrayBases[Arr];
        core::FaultPlan Plan;
        Plan.Mem.Seed = Seed * 7 + Arr;
        Plan.Mem.Ranges.push_back({Base, Base + mem::PageSize, /*Prob=*/0.06,
                                   faults::FaultDuration::Persistent});
        for (auto &[VarName, CL] : vectorVariants(C)) {
          core::DiffVerdict V = core::runDifferentialMulti(
              *C.F, C.PR.Scalar, *CL, C.In.Image, {C.In.B}, Plan);
          EXPECT_TRUE(V.Equivalent)
              << C.Name << "/" << VarName << " array " << Arr << " seed "
              << Seed << ": " << V.describe();
          Injected += V.Scalar.Injection.MemFaultsInjected;
          (V.Scalar.Outcome.Ok ? Completed : Faulted) += 1;
        }
      }
    }
  }
  // The schedule matrix must actually exercise both outcomes.
  EXPECT_GT(Injected, 0u);
  EXPECT_GT(Faulted, 0u);
  EXPECT_GT(Completed, 0u);
}

// Injected RTM aborts never reach the scalar program (it has no
// transactions); the RTM variant retries or falls back, and both sides
// must still agree on the final state.
TEST(FaultDifferential, InjectedTxAbortsAreAbsorbedByRetryAndFallback) {
  bool SawRtm = false;
  for (uint64_t Seed : {5u, 6u}) {
    for (LoopCase &C : buildPaperLoops(Seed)) {
      if (!C.PR.Rtm)
        continue;
      SawRtm = true;
      for (rtm::AbortReason Reason :
           {rtm::AbortReason::Conflict, rtm::AbortReason::Capacity,
            rtm::AbortReason::Spurious}) {
        core::FaultPlan Plan;
        Plan.Tx.Seed = Seed;
        Plan.Tx.AbortProb = 0.3;
        Plan.Tx.Reason = Reason;
        core::DiffVerdict V = core::runDifferentialMulti(
            *C.F, C.PR.Scalar, *C.PR.Rtm, C.In.Image, {C.In.B}, Plan);
        EXPECT_TRUE(V.Equivalent)
            << C.Name << "/rtm reason=" << rtm::abortReasonName(Reason)
            << " seed " << Seed << ": " << V.describe();
        EXPECT_GT(V.Vector.Injection.TxAbortsInjected, 0u)
            << C.Name << ": the schedule must actually abort transactions";
      }
    }
  }
  EXPECT_TRUE(SawRtm) << "no loop produced an RTM variant";
}

// --- Adaptive dispatch under fault storms ---------------------------------===//

namespace {

/// The paper loops as multi-invocation sequences long enough to cross the
/// adaptive demotion window.
std::vector<ir::Bindings> repeated(const ir::Bindings &B, size_t Count) {
  return std::vector<ir::Bindings>(Count, B);
}

} // namespace

// A spurious-abort storm raging while invocations pass the preheader
// guard: the adaptive program must charge the aborts, demote inside the
// window, and stay bit-identical to scalar throughout.
TEST(FaultDifferential, SpuriousAbortStormDuringGuardedInvocationsDemotes) {
  for (LoopCase &C : buildPaperLoops(31)) {
    if (!C.PR.Adaptive || !C.PR.Rtm) // Tx storms need a transactional side.
      continue;
    core::FaultPlan Plan;
    Plan.Tx.Seed = 31;
    Plan.Tx.AbortProb = 0.9;
    Plan.Tx.Reason = rtm::AbortReason::Spurious;
    std::vector<ir::Bindings> Invocations = repeated(C.In.B, 12);
    core::DiffVerdict V = core::runDifferentialMulti(
        *C.F, C.PR.Scalar, *C.PR.Adaptive, C.In.Image, Invocations, Plan);
    ASSERT_TRUE(V.Equivalent) << C.Name << ": " << V.describe();
    ASSERT_TRUE(V.Vector.Outcome.HasDispatch) << C.Name;
    const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
    EXPECT_GT(D.GuardPass, 0u)
        << C.Name << ": the storm must hit guard-passing invocations";
    EXPECT_EQ(D.Demotions, 1u) << C.Name;
    EXPECT_EQ(D.State, 1u) << C.Name;
  }
}

// A storm that ends right after demotion: the program must NOT re-promote
// when the weather clears — demotion is permanent for the program's
// lifetime — and the final state must still be exact.
TEST(FaultDifferential, DemoteThenRecoverStaysDemotedAndExact) {
  for (LoopCase &C : buildPaperLoops(32)) {
    if (!C.PR.Adaptive || !C.PR.Rtm)
      continue;
    core::FaultPlan Plan;
    Plan.Tx.Seed = 32;
    Plan.Tx.AbortProb = 1.0;
    Plan.Tx.Reason = rtm::AbortReason::Conflict;
    // Enough injections to abort every tile of the first ~9 invocations
    // (driving demotion), then the storm ends and the world is calm for
    // the remaining invocations.
    Plan.Tx.MaxInjected = 2000;
    std::vector<ir::Bindings> Invocations = repeated(C.In.B, 16);
    core::DiffVerdict V = core::runDifferentialMulti(
        *C.F, C.PR.Scalar, *C.PR.Adaptive, C.In.Image, Invocations, Plan);
    ASSERT_TRUE(V.Equivalent) << C.Name << ": " << V.describe();
    ASSERT_TRUE(V.Vector.Outcome.HasDispatch) << C.Name;
    const driver::DispatchCounts &D = V.Vector.Outcome.Dispatch;
    EXPECT_EQ(D.Demotions, 1u)
        << C.Name << ": one demotion, no flapping after the storm ends";
    EXPECT_EQ(D.State, 1u)
        << C.Name << ": must stay demoted once the abort budget was burned";
  }
}

// --- The storm pass's shared scalar run and hook arming ----------------===//

namespace {

const char *const CorpusLoops[] = {
    "argmin_key2",      "find_sentinel", "histogram_weighted",
    "exit_then_update", "masked_else",   "update_conflict",
    "nested_gather",    "stride_probe",  "gather_heavy"};

/// A checked-in corpus loop (tests/corpus/NAME.fv) compiled, with inputs
/// built the way gen::checkLoop builds its storm pass's inputs.
struct StormCase {
  std::unique_ptr<ir::LoopFunction> F;
  core::PipelineResult PR;
  mem::Memory Image;
  std::vector<ir::Bindings> Invocations;
};

StormCase loadStormCase(const std::string &Name) {
  StormCase C;
  std::string Path =
      std::string(FLEXVEC_SOURCE_DIR) + "/tests/corpus/" + Name + ".fv";
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  ir::ParseResult P = ir::parseLoop(SS.str());
  EXPECT_TRUE(P) << Path << ": " << P.Error;
  C.F = std::move(P.F);
  C.PR = core::compileLoop(*C.F);

  const gen::Envelope E = gen::Envelope::classic();
  Rng R(fnv1a64(Name));
  gen::InputPlan Plan;
  Plan.Trip = 300;
  Plan.IndexMask = E.IndexMask;
  Plan.IndexBound = E.TableSize;
  Plan.ArraySlack = E.MaxAffineOffset + 4;
  ir::Bindings B = ir::Bindings::forFunction(*C.F);
  gen::buildConventionInputs(*C.F, R, Plan, C.Image, B);
  C.Invocations.assign(gen::CheckOptions().StormInvocations, B);
  return C;
}

/// gen::checkLoop's conflict-storm plan for variant \p V.
core::FaultPlan stormPlan(uint64_t StormSeed, core::VariantId V) {
  core::FaultPlan FP;
  FP.Tx.Seed = deriveStreamSeed(StormSeed, static_cast<uint64_t>(V));
  FP.Tx.AbortProb = gen::CheckOptions().StormAbortProb;
  FP.Tx.Reason = rtm::AbortReason::Conflict;
  return FP;
}

void expectSameRun(const core::FaultedRun &A, const core::FaultedRun &B,
                   const std::string &Where) {
  const core::RunOutcome &X = A.Outcome, &Y = B.Outcome;
  EXPECT_EQ(X.Ok, Y.Ok) << Where;
  EXPECT_EQ(X.Exec.Reason, Y.Exec.Reason) << Where;
  EXPECT_EQ(X.Exec.FaultAddr, Y.Exec.FaultAddr) << Where;
  EXPECT_EQ(X.Exec.FaultPC, Y.Exec.FaultPC) << Where;
  EXPECT_EQ(X.Exec.Stats.Instructions, Y.Exec.Stats.Instructions) << Where;
  EXPECT_EQ(X.Exec.Stats.MemoryAccesses, Y.Exec.Stats.MemoryAccesses)
      << Where;
  EXPECT_EQ(X.Exec.Stats.OpcodeCounts, Y.Exec.Stats.OpcodeCounts) << Where;
  EXPECT_EQ(X.MemFingerprint, Y.MemFingerprint) << Where;
  EXPECT_EQ(X.LiveOuts, Y.LiveOuts) << Where;
  EXPECT_EQ(X.LiveOutHash, Y.LiveOutHash) << Where;
  EXPECT_EQ(X.Mem.TlbHits, Y.Mem.TlbHits) << Where;
  EXPECT_EQ(X.Mem.TlbMisses, Y.Mem.TlbMisses) << Where;
  EXPECT_EQ(X.Mem.CowCopies, Y.Mem.CowCopies) << Where;
  EXPECT_EQ(A.Injection.MemAccessesSeen, B.Injection.MemAccessesSeen)
      << Where;
  EXPECT_EQ(A.Injection.MemFaultsInjected, B.Injection.MemFaultsInjected)
      << Where;
  EXPECT_EQ(A.Injection.TxOpsSeen, B.Injection.TxOpsSeen) << Where;
  EXPECT_EQ(A.Injection.TxAbortsInjected, B.Injection.TxAbortsInjected)
      << Where;
  EXPECT_EQ(A.Tx.Begins, B.Tx.Begins) << Where;
  EXPECT_EQ(A.Tx.Commits, B.Tx.Commits) << Where;
  EXPECT_EQ(A.Tx.Aborts, B.Tx.Aborts) << Where;
  EXPECT_EQ(A.Tx.InjectedAborts, B.Tx.InjectedAborts) << Where;
  EXPECT_EQ(A.Tx.BytesLogged, B.Tx.BytesLogged) << Where;
}

} // namespace

// gen::checkLoop runs the stormed scalar program once and judges both
// transactional variants against that one run. This is exact only because
// the scalar program has no XBEGIN, so the storm plans' Tx seeds cannot
// reach it: its run is the same under the flexvec-rtm plan, the
// flexvec-adaptive plan and no Tx plan at all.
TEST(StormScalarRun, IdenticalUnderEveryTxPlan) {
  for (const char *Name : CorpusLoops) {
    StormCase C = loadStormCase(Name);
    ASSERT_TRUE(C.F) << Name;
    ASSERT_FALSE(C.PR.Scalar.Prog.usesOpcode(Opcode::XBegin)) << Name;
    auto runScalar = [&](const core::FaultPlan &FP) {
      return core::runProgramMultiWithFaults(*C.F, C.PR.Scalar, C.Image,
                                             C.Invocations, FP);
    };

    core::FaultedRun Rtm = runScalar(stormPlan(77, core::VariantId::Rtm));
    ASSERT_TRUE(Rtm.Outcome.Ok) << Name << ": " << Rtm.Outcome.Error;
    EXPECT_EQ(Rtm.Injection.TxOpsSeen, 0u) << Name;
    EXPECT_EQ(Rtm.Tx.Begins, 0u) << Name;
    expectSameRun(Rtm, runScalar(stormPlan(77, core::VariantId::Adaptive)),
                  std::string(Name) + ": rtm vs adaptive plan");
    expectSameRun(Rtm, runScalar(core::FaultPlan()),
                  std::string(Name) + ": rtm vs tx-free plan");
  }
}

// Only a memory plan hooks memory. A hook sends every access down the
// general path and turns off the SIMD fast paths, so a Tx-only storm
// leaves memory unhooked and its non-transactional code (fallback bodies,
// demoted adaptive invocations) keeps the unit-stride fast path.
TEST(FaultHookArming, OnlyAMemoryPlanHooksMemory) {
  mem::Memory M;
  M.map(0x1000, mem::PageSize);
  emu::Machine Mach(M);
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortProb = 0.75;

  faults::FaultInjector TxOnly(faults::MemFaultPlan(), TxPlan);
  TxOnly.arm(M, &Mach.tx());
  EXPECT_EQ(M.faultHook(), nullptr);
  int32_t V = 0;
  EXPECT_TRUE(M.readValue(0x1000, V).Ok);
  EXPECT_EQ(TxOnly.stats().MemAccessesSeen, 0u);
  TxOnly.disarm();

  faults::MemFaultPlan MemPlan;
  MemPlan.Ranges.push_back({0x1800, 0x1840, 1.0,
                            faults::FaultDuration::Persistent});
  faults::FaultInjector WithMem(MemPlan, TxPlan);
  WithMem.arm(M, &Mach.tx());
  EXPECT_EQ(M.faultHook(), &WithMem);
  EXPECT_TRUE(M.readValue(0x1000, V).Ok);
  EXPECT_FALSE(M.readValue(0x1800, V).Ok);
  EXPECT_EQ(WithMem.stats().MemAccessesSeen, 2u);
  EXPECT_EQ(WithMem.stats().MemFaultsInjected, 1u);
  WithMem.disarm();
  EXPECT_EQ(M.faultHook(), nullptr);
}

// Demoted adaptive invocations run the traditional nest outside any
// transaction; under a Tx-only storm its unit-stride accesses must take
// the fast path.
TEST(FaultHookArming, TxOnlyStormKeepsTheUnitStrideFastPath) {
  uint64_t Hits = 0;
  for (const char *Name : CorpusLoops) {
    StormCase C = loadStormCase(Name);
    ASSERT_TRUE(C.F) << Name;
    if (!C.PR.Adaptive)
      continue;
    core::FaultedRun Run = core::runProgramMultiWithFaults(
        *C.F, *C.PR.Adaptive, C.Image, C.Invocations,
        stormPlan(77, core::VariantId::Adaptive));
    ASSERT_TRUE(Run.Outcome.Ok) << Name << ": " << Run.Outcome.Error;
    EXPECT_GT(Run.Injection.TxAbortsInjected, 0u) << Name;
    Hits += Run.Outcome.Exec.Stats.SimdUnitStrideHits;
  }
  EXPECT_GT(Hits, 0u);
}

// --- Resilience policy, machine level ------------------------------------===//

namespace {

class ResilienceTest : public ::testing::Test {
protected:
  mem::Memory M;
  emu::Machine Mach{M};

  void SetUp() override { M.map(0x1000, 4 * mem::PageSize); }
};

} // namespace

TEST_F(ResilienceTest, NestedTransactionIsArchitecturalAbortNotProcessDeath) {
  ProgramBuilder B;
  auto OuterAbort = B.createLabel();
  auto InnerAbort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 111); // Rolled back to 111 on abort.
  B.xbegin(OuterAbort);
  B.movImm(Reg::scalar(2), 222);
  B.movImm(Reg::scalar(3), 9);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xbegin(InnerAbort); // Nested XBEGIN: aborts the running transaction.
  B.movImm(Reg::scalar(4), 1);
  B.xend();
  B.jmp(Done);
  B.bind(InnerAbort);
  B.movImm(Reg::scalar(5), 1); // Must never run: the OUTER target is taken.
  B.jmp(Done);
  B.bind(OuterAbort);
  B.movImm(Reg::scalar(6), 1);
  B.bind(Done);
  B.halt();
  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(2), 111) << "register rollback";
  EXPECT_EQ(Mach.getScalar(4), 0);
  EXPECT_EQ(Mach.getScalar(5), 0) << "inner abort target must not be taken";
  EXPECT_EQ(Mach.getScalar(6), 1) << "outer abort handler ran";
  EXPECT_EQ(M.get<int32_t>(0x1000), 0) << "memory rollback";
  EXPECT_EQ(Mach.txStats().AbortsNested, 1u);
  ASSERT_EQ(R.AbortHistory.size(), 1u);
  EXPECT_EQ(R.AbortHistory[0], rtm::AbortReason::Nested);
}

TEST_F(ResilienceTest, ThousandConsecutiveAbortsFallBackAndSurvive) {
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortProb = 1.0; // Every transactional operation aborts.
  TxPlan.Reason = rtm::AbortReason::Conflict;
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  // for (i = 0; i < 1000; ++i) { XBEGIN; store; XEND } with the abort
  // handler counting fallbacks in r3.
  ProgramBuilder B;
  auto Header = B.createLabel();
  auto Abort = B.createLabel();
  auto Cont = B.createLabel();
  auto Exit = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1100);
  B.movImm(Reg::scalar(2), 0); // i
  B.movImm(Reg::scalar(3), 0); // fallback count
  B.movImm(Reg::scalar(5), 7);
  B.bind(Header);
  B.cmpImm(Reg::scalar(4), CmpKind::LT, Reg::scalar(2), 1000);
  B.brZero(Reg::scalar(4), Exit);
  B.xbegin(Abort);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(5));
  B.xend();
  B.jmp(Cont);
  B.bind(Abort);
  B.binOpImm(Opcode::AddImm, Reg::scalar(3), Reg::scalar(3), 1);
  B.bind(Cont);
  B.binOpImm(Opcode::AddImm, Reg::scalar(2), Reg::scalar(2), 1);
  B.jmp(Header);
  B.bind(Exit);
  B.halt();

  emu::RunLimits Limits;
  Limits.MaxRtmRetries = 4;
  emu::ExecResult R = Mach.run(B.finalize(), Limits);
  ASSERT_EQ(R.Reason, emu::StopReason::Halted)
      << "a storm of aborts must degrade to the fallback path, not kill "
         "the run: "
      << R.describe();
  EXPECT_EQ(Mach.getScalar(3), 1000) << "every iteration fell back";
  EXPECT_EQ(R.Stats.RtmFallbacks, 1000u);
  EXPECT_EQ(R.Stats.RtmBudgetExhausted, 1000u)
      << "every fallback here came from burning the retry budget";
  EXPECT_EQ(R.Stats.RtmRetries, 4000u) << "4 bounded retries per iteration";
  EXPECT_GT(R.Stats.BackoffCycles, 0u);
  EXPECT_EQ(Inj.stats().TxAbortsInjected, 5000u);
  EXPECT_EQ(M.get<int32_t>(0x1100), 0) << "no aborted store ever committed";
  EXPECT_EQ(R.AbortHistory.size(), emu::ExecResult::MaxAbortHistory);
}

TEST_F(ResilienceTest, RetryableAbortsEventuallyCommit) {
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortProb = 1.0;
  TxPlan.Reason = rtm::AbortReason::Conflict;
  TxPlan.MaxInjected = 2; // Transient storm: first two attempts abort.
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(3), 42);
  B.xbegin(Abort);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.movImm(Reg::scalar(4), 1);
  B.bind(Done);
  B.halt();

  emu::RunLimits Limits;
  Limits.MaxRtmRetries = 4;
  emu::ExecResult R = Mach.run(B.finalize(), Limits);
  ASSERT_EQ(R.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(4), 0) << "fallback must not be taken";
  EXPECT_EQ(M.get<int32_t>(0x1000), 42) << "third attempt committed";
  EXPECT_EQ(R.Stats.RtmRetries, 2u);
  EXPECT_EQ(R.Stats.RtmFallbacks, 0u);
  EXPECT_EQ(R.Stats.BackoffCycles, (1u << 1) + (1u << 2))
      << "exponential backoff across the two retries";
  EXPECT_EQ(Mach.txStats().Commits, 1u);
  EXPECT_EQ(Mach.txStats().AbortsByConflict, 2u);
}

TEST_F(ResilienceTest, NonRetryableAbortDispatchesStraightToFallback) {
  faults::TxFaultPlan TxPlan;
  TxPlan.AbortNthOp = 1;
  TxPlan.Reason = rtm::AbortReason::Capacity; // Deterministic: no retry.
  faults::FaultInjector Inj(faults::MemFaultPlan(), TxPlan);
  Inj.arm(M, &Mach.tx());

  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(3), 42);
  B.xbegin(Abort);
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  // The fallback does the work non-transactionally.
  B.store(ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0, Reg::scalar(3));
  B.movImm(Reg::scalar(4), 1);
  B.bind(Done);
  B.halt();

  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(4), 1) << "fallback taken";
  EXPECT_EQ(M.get<int32_t>(0x1000), 42) << "fallback completed the work";
  EXPECT_EQ(R.Stats.RtmRetries, 0u) << "capacity aborts are not retried";
  EXPECT_EQ(R.Stats.RtmFallbacks, 1u);
}

TEST_F(ResilienceTest, TransientMemFaultInsideTxHealsForTheFallback) {
  M.set<int32_t>(0x1000, 77);
  faults::MemFaultPlan MemPlan;
  MemPlan.Ranges.push_back({0x1000, 0x1040, 1.0,
                            faults::FaultDuration::Transient});
  faults::FaultInjector Inj(MemPlan);
  Inj.arm(M, &Mach.tx());

  // The transactional load hits the (transient) fault, aborts the
  // transaction, and the fallback's non-transactional reload succeeds
  // because the line has healed.
  ProgramBuilder B;
  auto Abort = B.createLabel();
  auto Done = B.createLabel();
  B.movImm(Reg::scalar(1), 0x1000);
  B.xbegin(Abort);
  B.load(Reg::scalar(2), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.xend();
  B.jmp(Done);
  B.bind(Abort);
  B.load(Reg::scalar(3), ElemType::I32, Reg::scalar(1), Reg::none(), 1, 0);
  B.movImm(Reg::scalar(4), 1);
  B.bind(Done);
  B.halt();

  emu::ExecResult R = Mach.run(B.finalize());
  ASSERT_EQ(R.Reason, emu::StopReason::Halted) << R.describe();
  EXPECT_EQ(Mach.getScalar(4), 1) << "fault abort dispatched to fallback";
  EXPECT_EQ(Mach.getScalar(3), 77) << "healed line readable in fallback";
  EXPECT_EQ(Mach.txStats().AbortsByFault, 1u);
  EXPECT_EQ(Inj.stats().MemFaultsInjected, 1u);
}

// --- Harness-level structured reports ------------------------------------===//

TEST(FaultHarness, BudgetWatchdogProducesStructuredDiagnostics) {
  std::vector<LoopCase> Cases = buildPaperLoops(21);
  LoopCase &C = Cases[0];
  core::FaultPlan Plan;
  Plan.Limits.MaxInstructions = 50; // Far below what the loop needs.
  core::FaultedRun Run = core::runProgramMultiWithFaults(
      *C.F, C.PR.Scalar, C.In.Image, {C.In.B}, Plan);
  EXPECT_FALSE(Run.Outcome.Ok);
  EXPECT_EQ(Run.Outcome.Exec.Reason, emu::StopReason::BudgetExceeded);
  EXPECT_EQ(Run.Outcome.Exec.Stats.Instructions, 50u);
  EXPECT_NE(Run.report().find("budget-exceeded"), std::string::npos)
      << Run.report();
  EXPECT_NE(Run.report().find("pc="), std::string::npos) << Run.report();
}

TEST(FaultHarness, FailNthAccessYieldsStructuredFaultReport) {
  std::vector<LoopCase> Cases = buildPaperLoops(22);
  LoopCase &C = Cases[0];
  core::FaultPlan Plan;
  Plan.Mem.FailNthAccess = 7;
  core::FaultedRun Run = core::runProgramMultiWithFaults(
      *C.F, C.PR.Scalar, C.In.Image, {C.In.B}, Plan);
  EXPECT_FALSE(Run.Outcome.Ok);
  EXPECT_EQ(Run.Outcome.Exec.Reason, emu::StopReason::Fault);
  EXPECT_EQ(Run.Injection.MemFaultsInjected, 1u);
  EXPECT_NE(Run.Outcome.Exec.FaultAddr, 0u);
  EXPECT_NE(Run.report().find("fault"), std::string::npos) << Run.report();
}

namespace {

/// The oracle for the runner's stop report: \p CL's first invocation run
/// straight on a Machine over a clone of the case's image, under \p Plan.
emu::ExecResult runDirect(const LoopCase &C, const codegen::CompiledLoop &CL,
                          const core::FaultPlan &Plan) {
  mem::Memory M = C.In.Image.clone();
  emu::Machine Mach(M);
  faults::FaultInjector Inj(Plan.Mem, Plan.Tx);
  Inj.arm(M, &Mach.tx());
  const ir::Bindings &B = C.In.B;
  for (size_t S = 0; S < B.ScalarValues.size(); ++S)
    Mach.setScalar(codegen::scalarParamReg(static_cast<int>(S)).Index,
                   B.ScalarValues[S]);
  for (size_t A = 0; A < B.ArrayBases.size(); ++A)
    Mach.setScalar(codegen::arrayBaseReg(static_cast<int>(A)).Index,
                   static_cast<int64_t>(B.ArrayBases[A]));
  emu::ExecResult R = Mach.run(CL.Prog, Plan.Limits);
  Inj.disarm();
  return R;
}

void expectSameStop(const emu::ExecResult &Got, const emu::ExecResult &Want,
                    const char *Where) {
  EXPECT_EQ(Got.Reason, Want.Reason) << Where;
  EXPECT_EQ(Got.FaultAddr, Want.FaultAddr) << Where;
  EXPECT_EQ(Got.FaultPC, Want.FaultPC) << Where;
  EXPECT_EQ(Got.FaultOp, Want.FaultOp) << Where;
  EXPECT_EQ(Got.AbortHistory, Want.AbortHistory) << Where;
}

} // namespace

// A failed invocation keeps its whole stop report: the outcome's Exec is
// the failing invocation's ExecResult (stats aside), which is what a
// direct Machine::run of that invocation returns. The run stops there.
TEST(FaultHarness, FailedInvocationKeepsItsStopReport) {
  std::vector<LoopCase> Cases = buildPaperLoops(23);
  LoopCase &C = Cases[0];
  ASSERT_TRUE(C.PR.Rtm.has_value());
  std::vector<ir::Bindings> Twice = repeated(C.In.B, 2);

  core::FaultPlan Budget;
  Budget.Limits.MaxInstructions = 50;
  core::RunOutcome Out =
      core::runProgramMulti(*C.F, C.PR.Scalar, C.In.Image, Twice,
                            /*Sink=*/nullptr, /*MaxInstructionsPerRun=*/50);
  EXPECT_FALSE(Out.Ok);
  EXPECT_EQ(Out.Exec.Reason, emu::StopReason::BudgetExceeded);
  EXPECT_EQ(Out.Exec.Stats.Instructions, 50u) << "stopped at invocation 1";
  expectSameStop(Out.Exec, runDirect(C, C.PR.Scalar, Budget), "budget");

  // A persistent fault over the first array: inside a transaction it
  // aborts the tile, and the scalar fallback then faults architecturally.
  core::FaultPlan Range;
  uint64_t Base = C.In.B.ArrayBases[0];
  Range.Mem.Ranges.push_back({Base, Base + mem::PageSize, /*Prob=*/1.0,
                              faults::FaultDuration::Persistent});
  core::FaultedRun Run = core::runProgramMultiWithFaults(
      *C.F, *C.PR.Rtm, C.In.Image, Twice, Range);
  EXPECT_FALSE(Run.Outcome.Ok);
  EXPECT_EQ(Run.Outcome.Exec.Reason, emu::StopReason::Fault);
  EXPECT_NE(Run.Outcome.Exec.FaultOp, Opcode::Nop);
  EXPECT_EQ(Run.report().find("(nop)"), std::string::npos) << Run.report();
  expectSameStop(Run.Outcome.Exec, runDirect(C, *C.PR.Rtm, Range), "range");
}
