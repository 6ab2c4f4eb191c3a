//===- tests/TraceBatchTest.cpp - Batched trace delivery equivalence -------===//
//
// The trace-batching contract: a sink consuming whole batches via onBatch
// observes exactly the DynInstr sequence a legacy per-instruction sink
// (onInstr only, served through the default onBatch shim) observes —
// same records, same order, same effective-address lists — for every
// Figure-8 workload x variant cell. Plus structural checks on the batch
// stream itself (sizes, counts), and the sinkless contract: attaching a
// sink changes no ExecStats field beyond TraceBatches, even though
// sinkless runs skip address collection.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "core/ParallelEvaluator.h"
#include "core/Pipeline.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "workloads/Figure8.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace flexvec;

namespace {

uint64_t hashCombine(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Folds every observable field of a DynInstr record — including the
/// opcode behind the Instr pointer and the per-lane effective addresses —
/// into a running order-sensitive hash.
struct RecordDigest {
  uint64_t H = 0;
  uint64_t Count = 0;

  void fold(const emu::DynInstr &DI) {
    H = hashCombine(H, static_cast<uint64_t>(DI.Instr->Op));
    H = hashCombine(H, DI.InstrIdx);
    H = hashCombine(H, DI.NextIdx);
    H = hashCombine(H, DI.Taken ? 1 : 0);
    H = hashCombine(H, DI.ActiveMask);
    H = hashCombine(H, DI.AccessSize);
    H = hashCombine(H, DI.NumMemAddrs);
    for (uint32_t A = 0; A < DI.NumMemAddrs; ++A)
      H = hashCombine(H, DI.MemAddrs[A]);
    ++Count;
  }
};

/// A sink from before the batch API: implements only onInstr and relies
/// on the default onBatch shim to unbatch for it.
class LegacySink : public emu::TraceSink {
public:
  RecordDigest D;
  void onInstr(const emu::DynInstr &DI) override { D.fold(DI); }
};

/// A batch-native sink: consumes whole batches directly.
class BatchSink : public emu::TraceSink {
public:
  RecordDigest D;
  uint64_t Batches = 0;
  size_t MaxBatch = 0;
  void onInstr(const emu::DynInstr &DI) override { D.fold(DI); }
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    ++Batches;
    MaxBatch = std::max(MaxBatch, N);
    for (size_t I = 0; I < N; ++I)
      D.fold(Batch[I]);
  }
};

/// A sink that copies every record (and its address list) into owned
/// storage, for field-by-field comparison on small runs.
class RecordingSink : public emu::TraceSink {
public:
  struct Rec {
    const isa::Instruction *Instr;
    uint32_t InstrIdx, NextIdx;
    bool Taken;
    uint64_t ActiveMask;
    unsigned AccessSize;
    std::vector<uint64_t> Addrs;
  };
  std::vector<Rec> Recs;
  bool UseBatch;

  explicit RecordingSink(bool UseBatch) : UseBatch(UseBatch) {}

  void record(const emu::DynInstr &DI) {
    Recs.push_back({DI.Instr, DI.InstrIdx, DI.NextIdx, DI.Taken,
                    DI.ActiveMask, DI.AccessSize,
                    std::vector<uint64_t>(DI.MemAddrs,
                                          DI.MemAddrs + DI.NumMemAddrs)});
  }
  void onInstr(const emu::DynInstr &DI) override {
    ASSERT_FALSE(UseBatch) << "batch sink must not fall back to the shim";
    record(DI);
  }
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    if (!UseBatch) { // take the legacy shim path
      emu::TraceSink::onBatch(Batch, N);
      return;
    }
    for (size_t I = 0; I < N; ++I)
      record(Batch[I]);
  }
};

/// Every field of ExecStats except TraceBatches, element for element,
/// opcode counts and the mask-density histogram included.
void expectStatsEqual(const emu::ExecStats &A, const emu::ExecStats &B,
                      const std::string &Where) {
  EXPECT_EQ(A.Instructions, B.Instructions) << Where;
  EXPECT_EQ(A.Branches, B.Branches) << Where;
  EXPECT_EQ(A.TakenBranches, B.TakenBranches) << Where;
  EXPECT_EQ(A.MemoryAccesses, B.MemoryAccesses) << Where;
  EXPECT_EQ(A.VectorOps, B.VectorOps) << Where;
  EXPECT_EQ(A.RtmRetries, B.RtmRetries) << Where;
  EXPECT_EQ(A.RtmFallbacks, B.RtmFallbacks) << Where;
  EXPECT_EQ(A.RtmBudgetExhausted, B.RtmBudgetExhausted) << Where;
  EXPECT_EQ(A.BackoffCycles, B.BackoffCycles) << Where;
  EXPECT_EQ(A.VplSteps, B.VplSteps) << Where;
  EXPECT_EQ(A.VplPartitions, B.VplPartitions) << Where;
  EXPECT_EQ(A.FFClips, B.FFClips) << Where;
  EXPECT_EQ(A.FFSuppressedLanes, B.FFSuppressedLanes) << Where;
  EXPECT_EQ(A.ConflictChecks, B.ConflictChecks) << Where;
  EXPECT_EQ(A.ConflictHits, B.ConflictHits) << Where;
  EXPECT_EQ(A.SimdUnitStrideHits, B.SimdUnitStrideHits) << Where;
  EXPECT_EQ(A.SimdMaskShortcircuits, B.SimdMaskShortcircuits) << Where;
  EXPECT_EQ(A.MaskDensity, B.MaskDensity) << Where;
  EXPECT_EQ(A.MaskDensityUsed, B.MaskDensityUsed) << Where;
  EXPECT_EQ(A.RtmRetryDepth, B.RtmRetryDepth) << Where;
  EXPECT_EQ(A.OpcodeCounts, B.OpcodeCounts) << Where;
  // TraceBatches intentionally excluded: it counts sink deliveries.
}

TEST(TraceBatch, EveryFigure8CellDeliversIdenticalSequences) {
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  uint64_t CellsChecked = 0, RecordsChecked = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    core::PipelineResult PR = core::compileLoop(*W.F);
    Rng R(deriveStreamSeed(/*BaseSeed=*/1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      LegacySink Legacy;
      BatchSink Batched;
      core::RunOutcome A =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Legacy);
      core::RunOutcome B =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Batched);
      ASSERT_TRUE(A.Ok) << W.Name << " variant " << V << ": " << A.Error;
      ASSERT_TRUE(B.Ok) << W.Name << " variant " << V << ": " << B.Error;

      // Identical record streams, field for field.
      EXPECT_EQ(Legacy.D.Count, Batched.D.Count)
          << W.Name << "/" << core::variantName(
                 static_cast<core::VariantId>(V));
      EXPECT_EQ(Legacy.D.H, Batched.D.H)
          << W.Name << "/" << core::variantName(
                 static_cast<core::VariantId>(V))
          << ": batched delivery diverged from the onInstr shim";

      // The runs themselves are oblivious to the sink flavour.
      EXPECT_EQ(A.MemFingerprint, B.MemFingerprint);
      EXPECT_EQ(A.LiveOutHash, B.LiveOutHash);
      EXPECT_EQ(A.Exec.Stats.Instructions, B.Exec.Stats.Instructions);

      // Batch accounting: every record arrives in some batch, batches
      // never exceed the ring, and the stats counter matches delivery.
      EXPECT_GT(Batched.Batches, 0u);
      EXPECT_LE(Batched.MaxBatch, 64u);
      EXPECT_EQ(B.Exec.Stats.TraceBatches, Batched.Batches);
      EXPECT_EQ(Batched.D.Count,
                B.Exec.Stats.Instructions - In.Invocations.size())
          << "every retired instruction except the final Halt per "
             "invocation must be delivered";

      ++CellsChecked;
      RecordsChecked += Batched.D.Count;
    }
  }
  // The matrix must actually have been swept.
  EXPECT_GE(CellsChecked, 18u * 2u);
  EXPECT_GT(RecordsChecked, 0u);
}

TEST(TraceBatch, RecordedStreamsMatchFieldByField) {
  // One cell in full detail: every field of every record, including the
  // owned copies of the gather/scatter address lists.
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  const core::SweepWorkload &W = Suite.Workloads.front();
  core::PipelineResult PR = core::compileLoop(*W.F);
  const codegen::CompiledLoop *CL =
      core::selectVariant(PR, core::VariantId::FlexVec);
  ASSERT_NE(CL, nullptr);
  Rng R(deriveStreamSeed(1, fnv1a64(W.Name)));
  core::WorkloadInstance In = W.Gen(R);

  RecordingSink Legacy(/*UseBatch=*/false);
  RecordingSink Batched(/*UseBatch=*/true);
  core::RunOutcome A =
      core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Legacy);
  core::RunOutcome B =
      core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Batched);
  ASSERT_TRUE(A.Ok && B.Ok);

  ASSERT_EQ(Legacy.Recs.size(), Batched.Recs.size());
  ASSERT_GT(Legacy.Recs.size(), 0u);
  bool SawAddrs = false;
  for (size_t I = 0; I < Legacy.Recs.size(); ++I) {
    const RecordingSink::Rec &L = Legacy.Recs[I];
    const RecordingSink::Rec &Bt = Batched.Recs[I];
    ASSERT_EQ(L.Instr, Bt.Instr) << "record " << I;
    EXPECT_EQ(L.InstrIdx, Bt.InstrIdx) << "record " << I;
    EXPECT_EQ(L.NextIdx, Bt.NextIdx) << "record " << I;
    EXPECT_EQ(L.Taken, Bt.Taken) << "record " << I;
    EXPECT_EQ(L.ActiveMask, Bt.ActiveMask) << "record " << I;
    EXPECT_EQ(L.AccessSize, Bt.AccessSize) << "record " << I;
    EXPECT_EQ(L.Addrs, Bt.Addrs) << "record " << I;
    SawAddrs |= !L.Addrs.empty();
  }
  EXPECT_TRUE(SawAddrs) << "the cell must exercise the address pool";
}

TEST(TraceBatch, NoSinkRunStillCountsAccessesButNoBatches) {
  // Sinkless runs skip address collection and take different paths
  // (Collect is off), so every cell must show the same stats either way.
  workloads::Figure8Suite Suite = workloads::buildFigure8Suite(/*IterationScale=*/0.02);
  uint64_t CellsChecked = 0;
  for (const core::SweepWorkload &W : Suite.Workloads) {
    core::PipelineResult PR = core::compileLoop(*W.F);
    Rng R(deriveStreamSeed(/*BaseSeed=*/1, fnv1a64(W.Name)));
    core::WorkloadInstance In = W.Gen(R);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      const std::string Where =
          W.Name + "/" + core::variantName(static_cast<core::VariantId>(V));
      BatchSink Sink;
      core::RunOutcome WithSink =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations, &Sink);
      core::RunOutcome NoSink =
          core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations);
      ASSERT_TRUE(WithSink.Ok) << Where << ": " << WithSink.Error;
      ASSERT_TRUE(NoSink.Ok) << Where << ": " << NoSink.Error;

      expectStatsEqual(NoSink.Exec.Stats, WithSink.Exec.Stats, Where);
      EXPECT_EQ(NoSink.MemFingerprint, WithSink.MemFingerprint) << Where;
      EXPECT_EQ(NoSink.LiveOutHash, WithSink.LiveOutHash) << Where;
      EXPECT_EQ(NoSink.Exec.Stats.TraceBatches, 0u)
          << Where << ": no sink, no batch deliveries";
      EXPECT_GT(WithSink.Exec.Stats.TraceBatches, 0u) << Where;
      ++CellsChecked;
    }
  }
  EXPECT_GE(CellsChecked, 18u * 2u);
}

} // namespace
