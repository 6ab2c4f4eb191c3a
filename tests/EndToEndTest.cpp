//===- tests/EndToEndTest.cpp - Cross-variant correctness ------------------===//
//
// Property tests: for the paper's three example loops, every generated
// program variant (scalar, speculative, FlexVec, FlexVec-RTM) must produce
// exactly the reference interpreter's memory image and live-out values,
// across many random inputs and dependence probabilities.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/Pipeline.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::core;
using namespace flexvec::workloads;

namespace {

struct Variant {
  const char *Name;
  const codegen::CompiledLoop *CL;
};

void expectAllVariantsMatch(const ir::LoopFunction &F,
                            const PipelineResult &PR, const LoopInputs &In) {
  RunOutcome Ref = runReferenceMulti(F, In.Image, {In.B});
  ASSERT_TRUE(Ref.Ok);

  std::vector<Variant> Variants;
  Variants.push_back({"scalar", &PR.Scalar});
  if (PR.Traditional)
    Variants.push_back({"traditional", &*PR.Traditional});
  if (PR.Speculative)
    Variants.push_back({"speculative", &*PR.Speculative});
  if (PR.FlexVec)
    Variants.push_back({"flexvec", &*PR.FlexVec});
  if (PR.Rtm)
    Variants.push_back({"flexvec-rtm", &*PR.Rtm});

  for (const Variant &V : Variants) {
    RunOutcome Out = runProgramMulti(F, *V.CL, In.Image, {In.B});
    EXPECT_TRUE(Out.Ok) << V.Name << ": " << Out.Error << "\n"
                        << V.CL->Prog.disassemble();
    EXPECT_TRUE(outcomesMatch(F, Ref, Out))
        << V.Name << " diverges from the reference\n"
        << "ref mem=" << Ref.MemFingerprint << " got=" << Out.MemFingerprint;
  }
}

} // namespace

TEST(EndToEnd, H264PlanShape) {
  auto F = buildH264Loop();
  PipelineResult PR = compileLoop(*F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  EXPECT_TRUE(PR.Plan.needsFlexVec());
  ASSERT_EQ(PR.Plan.CondUpdateVpls.size(), 1u);
  EXPECT_EQ(PR.Plan.CondUpdateVpls[0].Updates.size(), 2u); // min + best_pos
  EXPECT_FALSE(PR.Traditional.has_value()); // Baseline cannot vectorize it.
  ASSERT_TRUE(PR.FlexVec.has_value());
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VSlctLast));
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::KFtmInc));
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VGatherFF));
}

TEST(EndToEnd, ConflictPlanShape) {
  auto F = buildConflictLoop();
  PipelineResult PR = compileLoop(*F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  ASSERT_EQ(PR.Plan.MemConflictVpls.size(), 1u);
  ASSERT_TRUE(PR.FlexVec.has_value());
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VConflictM));
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::KFtmExc));
}

TEST(EndToEnd, EarlyExitPlanShape) {
  auto F = buildEarlyExitLoop();
  PipelineResult PR = compileLoop(*F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  ASSERT_EQ(PR.Plan.EarlyExits.size(), 1u);
  ASSERT_TRUE(PR.FlexVec.has_value());
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::VMovFF));
  EXPECT_TRUE(PR.FlexVec->Prog.usesOpcode(isa::Opcode::KFtmInc));
}

class H264Property : public ::testing::TestWithParam<int> {};

TEST_P(H264Property, AllVariantsMatchReference) {
  auto F = buildH264Loop();
  PipelineResult PR = compileLoop(*F, /*RtmTile=*/64);
  Rng R(1000 + static_cast<uint64_t>(GetParam()));
  double Probs[] = {0.0, 0.02, 0.1, 0.4, 0.9};
  for (double P : Probs) {
    int64_t N = 40 + static_cast<int64_t>(R.nextBelow(400));
    LoopInputs In = genH264Inputs(*F, R, N, P);
    expectAllVariantsMatch(*F, PR, In);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, H264Property, ::testing::Range(0, 8));

class ConflictProperty : public ::testing::TestWithParam<int> {};

TEST_P(ConflictProperty, AllVariantsMatchReference) {
  auto F = buildConflictLoop();
  PipelineResult PR = compileLoop(*F, /*RtmTile=*/64);
  Rng R(2000 + static_cast<uint64_t>(GetParam()));
  double Probs[] = {0.0, 0.05, 0.3, 0.8};
  for (double P : Probs) {
    int64_t N = 40 + static_cast<int64_t>(R.nextBelow(400));
    LoopInputs In = genConflictInputs(*F, R, N, P, /*TableSize=*/256);
    expectAllVariantsMatch(*F, PR, In);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictProperty, ::testing::Range(0, 8));

class EarlyExitProperty : public ::testing::TestWithParam<int> {};

TEST_P(EarlyExitProperty, AllVariantsMatchReference) {
  auto F = buildEarlyExitLoop();
  PipelineResult PR = compileLoop(*F, /*RtmTile=*/64);
  Rng R(3000 + static_cast<uint64_t>(GetParam()));
  for (int Case = 0; Case < 6; ++Case) {
    int64_t N = 50 + static_cast<int64_t>(R.nextBelow(300));
    // Match positions: early, mid, at the very end, and absent.
    int64_t MatchPos;
    switch (Case % 4) {
    case 0:
      MatchPos = static_cast<int64_t>(R.nextBelow(8));
      break;
    case 1:
      MatchPos = static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(N)));
      break;
    case 2:
      MatchPos = N - 1;
      break;
    default:
      MatchPos = N + 100; // No match.
    }
    LoopInputs In = genEarlyExitInputs(*F, R, N, MatchPos);
    expectAllVariantsMatch(*F, PR, In);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EarlyExitProperty, ::testing::Range(0, 8));

TEST(EndToEnd, EarlyExitSpeculativeFaultFallsBackToScalar) {
  auto F = buildEarlyExitLoop();
  PipelineResult PR = compileLoop(*F);
  ASSERT_TRUE(PR.FlexVec.has_value());
  Rng R(42);
  // The string ends right at a page boundary one element past the match:
  // speculative lanes fault, VMOVFF clips the mask, and the program must
  // take the scalar fallback and still produce the right answer.
  LoopInputs In = genEarlyExitInputs(*F, R, /*N=*/500, /*MatchPos=*/123,
                                     /*TightPages=*/true);
  RunOutcome Ref = runReferenceMulti(*F, In.Image, {In.B});
  RunOutcome Out = runProgramMulti(*F, *PR.FlexVec, In.Image, {In.B});
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_TRUE(outcomesMatch(*F, Ref, Out));

  // The RTM variant must also survive via transaction abort + scalar tile.
  ASSERT_TRUE(PR.Rtm.has_value());
  RunOutcome OutRtm = runProgramMulti(*F, *PR.Rtm, In.Image, {In.B});
  ASSERT_TRUE(OutRtm.Ok) << OutRtm.Error;
  EXPECT_TRUE(outcomesMatch(*F, Ref, OutRtm));
}
