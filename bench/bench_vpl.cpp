//===- bench/bench_vpl.cpp - Vector Partitioning Loop anatomy --------------===//
//
// Instruments the partial vector execution machinery itself: for the
// h264ref conditional-update loop and the Figure 2 conflict loop, counts
// how many VPL iterations each vector chunk needs as the dependence
// probability varies (Section 3.1: "the VPL will be iterated as many
// times as needed to correctly process all scalar lanes"), and reports
// the dynamic FlexVec-instruction footprint of the generated code.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/Pipeline.h"
#include "support/Table.h"
#include "workloads/PaperLoops.h"

#include <cstdio>

using namespace flexvec;
using namespace flexvec::workloads;
using isa::Opcode;

namespace {

struct VplStats {
  double AvgVplItersPerChunk;
  double MaxTheoretical;
  uint64_t Kftm, Slct, Conflict, FF;
};

/// The number of KFTM executions per chunk equals the number of VPL
/// iterations (one per round), so the dynamic opcode counts expose the
/// distribution directly.
VplStats measure(const ir::LoopFunction &F, const codegen::CompiledLoop &CL,
                 const mem::Memory &Image, const ir::Bindings &B,
                 unsigned VL) {
  core::RunOutcome Out = core::runProgramMulti(F, CL, Image, {B});
  const emu::ExecStats &S = Out.Exec.Stats;
  uint64_t Kftm = S.countOf(Opcode::KFtmExc) + S.countOf(Opcode::KFtmInc);
  int64_t Trip = B.getInt(F.tripCountScalar());
  double Chunks = static_cast<double>(Trip) / VL;
  VplStats V;
  V.AvgVplItersPerChunk = static_cast<double>(Kftm) / Chunks;
  V.MaxTheoretical = VL;
  V.Kftm = Kftm;
  V.Slct = S.countOf(Opcode::VSlctLast);
  V.Conflict = S.countOf(Opcode::VConflictM);
  V.FF = S.countOf(Opcode::VGatherFF) + S.countOf(Opcode::VMovFF);
  return V;
}

} // namespace

int main() {
  std::printf("Vector Partitioning Loop anatomy (Sections 3.1, 4.2, 4.3)\n\n");

  const double Probs[] = {0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0};

  {
    auto F = buildH264Loop();
    core::PipelineResult PR = core::compileLoop(*F);
    std::printf("== conditional update (h264ref, VL=16, trip=20000) ==\n");
    TextTable T({"update prob", "VPL iters/chunk", "KFTM execs",
                 "VPSLCTLAST execs", "FF loads"});
    for (double P : Probs) {
      Rng R(21);
      LoopInputs In = genH264Inputs(*F, R, 20000, P);
      VplStats V = measure(*F, *PR.FlexVec, In.Image, In.B, 16);
      T.addRow({TextTable::fmt(P, 2), TextTable::fmt(V.AvgVplItersPerChunk, 2),
                TextTable::fmtInt(static_cast<long long>(V.Kftm)),
                TextTable::fmtInt(static_cast<long long>(V.Slct)),
                TextTable::fmtInt(static_cast<long long>(V.FF))});
    }
    T.print();
    std::printf("\n");
  }

  {
    auto F = buildConflictLoop();
    core::PipelineResult PR = core::compileLoop(*F);
    std::printf("== memory conflict (Figure 2 loop, VL=16, trip=20000) ==\n");
    TextTable T({"conflict prob", "VPL iters/chunk", "KFTM execs",
                 "VPCONFLICTM execs"});
    for (double P : Probs) {
      Rng R(22);
      LoopInputs In = genConflictInputs(*F, R, 20000, P, 512);
      VplStats V = measure(*F, *PR.FlexVec, In.Image, In.B, 16);
      T.addRow({TextTable::fmt(P, 2), TextTable::fmt(V.AvgVplItersPerChunk, 2),
                TextTable::fmtInt(static_cast<long long>(V.Kftm)),
                TextTable::fmtInt(static_cast<long long>(V.Conflict))});
    }
    T.print();
  }

  std::printf("\nexpected shape: one VPL iteration per chunk at probability "
              "0 (the steady state of Section 3); the count grows with the\n"
              "dependence rate and saturates near one round per dependent "
              "lane.\n");
  return 0;
}
