//===- examples/quickstart.cpp - FlexVec in five minutes -------------------===//
//
// Builds the paper's h264ref motion-search loop (Section 1.1) in the loop
// IR, runs the FlexVec pipeline, verifies every generated variant against
// the reference interpreter, and measures cycles on the Table 1 core.
//
//   $ ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/Pipeline.h"
#include "sim/OooCore.h"
#include "support/Table.h"
#include "workloads/PaperLoops.h"

#include <cstdio>

using namespace flexvec;

int main() {
  // 1. The loop, as the compiler sees it.
  auto F = workloads::buildH264Loop();
  std::printf("== Input loop ==\n%s\n", F->print().c_str());

  // 2. Analysis + code generation.
  core::PipelineResult PR = core::compileLoop(*F);
  std::printf("== Analysis ==\n%s\n\n", PR.Plan.describe(*F).c_str());

  std::printf("== FlexVec vector code (disassembly) ==\n%s\n",
              PR.FlexVec->Prog.disassemble().c_str());

  // 3. Inputs: 100k iterations, inner update fires ~2% of the time
  //    (effective vector length ~16).
  Rng R(7);
  workloads::LoopInputs In =
      workloads::genH264Inputs(*F, R, /*N=*/100000, /*UpdateProb=*/0.02);

  // 4. Correctness: every variant must match the reference interpreter.
  core::RunOutcome Ref = core::runReferenceMulti(*F, In.Image, {In.B});
  auto check = [&](const char *Name, const codegen::CompiledLoop &CL) {
    core::RunOutcome Out = core::runProgramMulti(*F, CL, In.Image, {In.B});
    std::printf("  %-14s %s\n", Name,
                core::outcomesMatch(*F, Ref, Out) ? "matches reference"
                                                  : "MISMATCH");
  };
  std::printf("== Correctness ==\n");
  check("scalar", PR.Scalar);
  if (PR.Speculative)
    check("speculative", *PR.Speculative);
  check("flexvec", *PR.FlexVec);
  check("flexvec-rtm", *PR.Rtm);
  if (PR.Adaptive)
    check("flexvec-adaptive", *PR.Adaptive);

  // 5. Performance on the Table 1 core: the timing model rides on the
  //    run as its trace sink.
  auto measure = [&](const codegen::CompiledLoop &CL) {
    sim::OooCore Core;
    core::runProgramMulti(*F, CL, In.Image, {In.B}, &Core);
    return Core.stats();
  };
  std::printf("\n== Timing (Table 1 core) ==\n");
  TextTable T({"variant", "cycles", "instrs", "IPC", "speedup vs scalar"});
  sim::SimStats Base = measure(PR.Scalar);
  auto row = [&](const char *Name, const codegen::CompiledLoop &CL) {
    sim::SimStats M = measure(CL);
    T.addRow({Name, TextTable::fmtInt(static_cast<long long>(M.Cycles)),
              TextTable::fmtInt(static_cast<long long>(M.Instructions)),
              TextTable::fmt(M.ipc(), 2),
              TextTable::fmt(static_cast<double>(Base.Cycles) /
                                 static_cast<double>(M.Cycles),
                             2) +
                  "x"});
  };
  row("scalar", PR.Scalar);
  if (PR.Speculative)
    row("speculative", *PR.Speculative);
  row("flexvec", *PR.FlexVec);
  row("flexvec-rtm", *PR.Rtm);
  if (PR.Adaptive)
    row("flexvec-adaptive", *PR.Adaptive);
  T.print();

  std::printf("\n== Microarchitectural detail ==\n");
  TextTable D({"variant", "uops", "branches", "mispredicts", "L1 hits",
               "L2+L3 hits", "mem accesses", "bound by (FE/win/dep/port)"});
  auto detail = [&](const char *Name, const codegen::CompiledLoop &CL) {
    sim::SimStats S = measure(CL);
    D.addRow({Name, TextTable::fmtInt(static_cast<long long>(S.Uops)),
              TextTable::fmtInt(static_cast<long long>(S.Branches)),
              TextTable::fmtInt(static_cast<long long>(S.Mispredicts)),
              TextTable::fmtInt(static_cast<long long>(S.Mem.L1Hits)),
              TextTable::fmtInt(
                  static_cast<long long>(S.Mem.L2Hits + S.Mem.L3Hits)),
              TextTable::fmtInt(static_cast<long long>(S.Mem.MemAccesses)),
              TextTable::fmtPercent(
                  static_cast<double>(S.BoundByFrontEnd) / S.Uops, 0) + "/" +
                  TextTable::fmtPercent(
                      static_cast<double>(S.BoundByWindow) / S.Uops, 0) +
                  "/" +
                  TextTable::fmtPercent(
                      static_cast<double>(S.BoundByDeps) / S.Uops, 0) +
                  "/" +
                  TextTable::fmtPercent(
                      static_cast<double>(S.BoundByPorts) / S.Uops, 0)});
  };
  detail("scalar", PR.Scalar);
  if (PR.Speculative)
    detail("speculative", *PR.Speculative);
  detail("flexvec", *PR.FlexVec);
  detail("flexvec-rtm", *PR.Rtm);
  D.print();
  return 0;
}
