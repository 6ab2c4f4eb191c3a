//===- tests/AsmParserTest.cpp - Assembler round-trip tests ----------------===//
//
// Every program the code generators emit must survive a
// disassemble → assemble round trip bit-for-bit in behaviour, and
// hand-written assembly must execute as written.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/Pipeline.h"
#include "emu/Machine.h"
#include "isa/AsmParser.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::isa;

TEST(AsmParser, HandWrittenSumLoop) {
  AsmResult R = assembleProgram(R"(
        movimm r1, 0          ; i
        movimm r2, 0          ; sum
  head: cmpi.lt r3, r1, 10
        brz r3, @done
        add r2, r2, r1
        addi r1, r1, 1
        jmp @head
  done: halt
)");
  ASSERT_TRUE(R) << R.Error;
  mem::Memory M;
  emu::Machine Mach(M);
  emu::ExecResult E = Mach.run(R.Prog);
  EXPECT_EQ(E.Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(2), 45);
}

TEST(AsmParser, FlexVecInstructionsParse) {
  AsmResult R = assembleProgram(R"(
    kset k1, 65535
    kset k3, 16
    kftm.exc.i32 k2, {k1}, k3
    kftm.inc.i32 k4, {k1}, k3
    vindex.i32 v1, r1
    vpslctlast.i32 v2, {k2}, v1
    vpconflictm.i32 k5, {k1}, v1, v1
    ktest r5, k5
    halt
)");
  ASSERT_TRUE(R) << R.Error;
  mem::Memory M;
  emu::Machine Mach(M);
  ASSERT_EQ(Mach.run(R.Prog).Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getMask(2), 0xFu);     // exc: lanes before bit 4
  EXPECT_EQ(Mach.getMask(4), 0x1Fu);    // inc: through bit 4
  EXPECT_EQ(Mach.getScalar(5), 0);      // iota never self-conflicts
}

TEST(AsmParser, MemoryOperandsWithScaleAndDisp) {
  AsmResult R = assembleProgram(R"(
    movimm r1, 4096
    movimm r2, 3
    movimm r3, 77
    store.i32 [r1 + r2*4 + 8], r3
    load.i32 r4, [r1 + r2*4 + 8]
    halt
)");
  ASSERT_TRUE(R) << R.Error;
  mem::Memory M;
  M.map(4096, 4096);
  emu::Machine Mach(M);
  ASSERT_EQ(Mach.run(R.Prog).Reason, emu::StopReason::Halted);
  EXPECT_EQ(Mach.getScalar(4), 77);
  EXPECT_EQ(M.get<int32_t>(4096 + 12 + 8), 77);
}

TEST(AsmParser, Diagnostics) {
  EXPECT_FALSE(assembleProgram("frobnicate r1, r2"));
  EXPECT_FALSE(assembleProgram("add r1, r2, r3, r4, r5"));
  EXPECT_FALSE(assembleProgram("jmp @nowhere"));
  EXPECT_FALSE(assembleProgram("add r99, r1, r2"));
  AsmResult R = assembleProgram("movimm r1, zzz");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("line 1"), std::string::npos) << R.Error;
}

namespace {

/// Disassemble → assemble → compare behaviour on real inputs.
void roundTrip(const ir::LoopFunction &F, const codegen::CompiledLoop &CL,
               const mem::Memory &Image, const ir::Bindings &B) {
  std::string Text = CL.Prog.disassemble();
  AsmResult R = assembleProgram(Text);
  ASSERT_TRUE(R) << R.Error << "\n" << Text;
  ASSERT_EQ(R.Prog.size(), CL.Prog.size());

  codegen::CompiledLoop Reassembled = CL;
  Reassembled.Prog = R.Prog;
  core::RunOutcome A = core::runProgramMulti(F, CL, Image, {B});
  core::RunOutcome C = core::runProgramMulti(F, Reassembled, Image, {B});
  ASSERT_TRUE(A.Ok && C.Ok);
  EXPECT_TRUE(core::outcomesMatch(F, A, C));
}

} // namespace

TEST(AsmParser, RoundTripsGeneratedPrograms) {
  {
    auto F = workloads::buildH264Loop();
    core::PipelineResult PR = core::compileLoop(*F);
    Rng R(61);
    workloads::LoopInputs In = workloads::genH264Inputs(*F, R, 500, 0.05);
    roundTrip(*F, PR.Scalar, In.Image, In.B);
    roundTrip(*F, *PR.FlexVec, In.Image, In.B);
    roundTrip(*F, *PR.Rtm, In.Image, In.B);
  }
  {
    auto F = workloads::buildConflictLoop();
    core::PipelineResult PR = core::compileLoop(*F);
    Rng R(62);
    workloads::LoopInputs In = workloads::genConflictInputs(*F, R, 500, 0.3,
                                                            128);
    roundTrip(*F, *PR.FlexVec, In.Image, In.B);
    roundTrip(*F, *PR.Speculative, In.Image, In.B);
  }
  {
    auto F = workloads::buildEarlyExitLoop();
    core::PipelineResult PR = core::compileLoop(*F);
    Rng R(63);
    workloads::LoopInputs In = workloads::genEarlyExitInputs(*F, R, 500, 313);
    roundTrip(*F, *PR.FlexVec, In.Image, In.B);
  }
}

TEST(AsmParser, RoundTripPreservesInstructionIdentity) {
  auto F = workloads::buildConflictLoop();
  core::PipelineResult PR = core::compileLoop(*F);
  AsmResult R = assembleProgram(PR.FlexVec->Prog.disassemble());
  ASSERT_TRUE(R) << R.Error;
  for (size_t I = 0; I < R.Prog.size(); ++I) {
    const Instruction &A = PR.FlexVec->Prog[I];
    const Instruction &C = R.Prog[I];
    EXPECT_EQ(A.Op, C.Op) << "instr " << I;
    EXPECT_EQ(A.Type, C.Type) << "instr " << I;
    EXPECT_EQ(A.Dst, C.Dst) << "instr " << I;
    EXPECT_EQ(A.Src1, C.Src1) << "instr " << I;
    EXPECT_EQ(A.Src2, C.Src2) << "instr " << I;
    EXPECT_EQ(A.Src3, C.Src3) << "instr " << I;
    EXPECT_EQ(A.MaskReg, C.MaskReg) << "instr " << I;
    EXPECT_EQ(A.Imm, C.Imm) << "instr " << I;
    EXPECT_EQ(A.Scale, C.Scale) << "instr " << I;
    EXPECT_EQ(A.Disp, C.Disp) << "instr " << I;
    EXPECT_EQ(A.Target, C.Target) << "instr " << I;
  }
}
