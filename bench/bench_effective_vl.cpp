//===- bench/bench_effective_vl.cpp - Dependence-frequency sensitivity -----===//
//
// Reproduces the qualitative claims of Sections 1-2: FlexVec's partial
// vector execution degrades gracefully as the dependence frequency rises
// (the effective vector length falls), while the PACT'13-style
// all-or-nothing speculative vectorizer "will experience constant
// rollbacks" once a dependence appears in most vector chunks.
//
// Two kernels are swept:
//  * argmin conditional update (update probability 0 .. 0.5)
//  * the Figure 2 memory-conflict loop (conflict probability 0 .. 0.5)
//
// Reported: speedup over scalar for the speculative baseline, FlexVec,
// and FlexVec-RTM, plus the measured effective vector length.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/Pipeline.h"
#include "profile/LoopProfiler.h"
#include "sim/OooCore.h"
#include "support/Table.h"
#include "workloads/Benchmarks.h"

#include <cstdio>
#include <functional>

using namespace flexvec;
using namespace flexvec::workloads;

namespace {

void sweep(const char *Title, const ir::LoopFunction &F,
           const std::function<BenchInstance(Rng &, double)> &Gen) {
  std::printf("== %s ==\n", Title);
  core::PipelineResult PR = core::compileLoop(F);
  if (!PR.FlexVec) {
    std::printf("no FlexVec build: %s\n", PR.Plan.Reason.c_str());
    return;
  }

  TextTable T({"dep prob", "eff. VL", "speculative(PACT'13)", "flexvec",
               "flexvec-rtm"});
  const double Probs[] = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5};
  for (double P : Probs) {
    Rng R(0xEFF + static_cast<uint64_t>(P * 1000));
    BenchInstance In = Gen(R, P);

    profile::LoopProfiler Prof(F, PR.Plan);
    mem::Memory M = In.Image.clone();
    Prof.profileRun(M, In.Invocations[0]);
    double EffVl = Prof.summarize(1.0).EffectiveVL;

    sim::OooCore ScalarCore;
    core::runProgramMulti(F, PR.Scalar, In.Image, In.Invocations,
                          &ScalarCore);
    auto speedupOf = [&](const codegen::CompiledLoop &CL) {
      sim::OooCore Core;
      core::RunOutcome O =
          core::runProgramMulti(F, CL, In.Image, In.Invocations, &Core);
      if (!O.Ok)
        return std::string("FAIL");
      double S = static_cast<double>(ScalarCore.stats().Cycles) /
                 static_cast<double>(Core.stats().Cycles);
      return TextTable::fmt(S, 2) + "x";
    };

    std::string Spec = PR.Speculative ? speedupOf(*PR.Speculative) : "n/a";
    T.addRow({TextTable::fmt(P, 2), TextTable::fmt(EffVl, 1), Spec,
              speedupOf(*PR.FlexVec), speedupOf(*PR.Rtm)});
  }
  T.print();
  std::printf("\n");
}

} // namespace

int main() {
  std::printf("Effective vector length sensitivity: FlexVec vs the "
              "all-or-nothing speculative baseline (Section 2)\n\n");

  auto ArgminLoop = buildArgExtremeLoop("argmin_sweep", /*Fp=*/false,
                                        /*ExtraCompute=*/2,
                                        /*Branchy=*/false);
  sweep("conditional scalar update (argmin, VL=16)", *ArgminLoop,
        [&](Rng &R, double P) {
          return genArgExtremeInputs(*ArgminLoop, R, /*Trip=*/20000,
                                     /*Invocations=*/1, P, false, 2, false);
        });

  auto Conflict = buildScatterAccumLoop("conflict_sweep", /*Fp=*/false,
                                        /*ExtraCompute=*/2);
  sweep("runtime memory dependence (scatter-accumulate, VL=16)", *Conflict,
        [&](Rng &R, double P) {
          return genScatterAccumInputs(*Conflict, R, /*Trip=*/20000,
                                       /*Invocations=*/1, P,
                                       /*TableSize=*/4096, false, 2);
        });

  std::printf(
      "expected shape: at prob 0 all vector schemes win and are similar;\n"
      "as the probability rises the speculative baseline collapses below\n"
      "1x (constant scalar rollbacks) while FlexVec degrades gracefully\n"
      "(VPL re-execution only for the lanes past each dependence).\n");
  return 0;
}
