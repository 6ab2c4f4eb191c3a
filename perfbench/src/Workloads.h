//===- perfbench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// Each workload has two runners. The untraced one calls the program
// exactly as its user-facing tool does (core::runSweep as flexvec-bench
// does; gen::generateLoop + gen::checkLoop as flexvec-fuzz does) and gives
// the end-to-end metrics. The traced one recomposes the same work from the
// layers' public functions, wraps every call in a span, and must produce
// the same deterministic outputs (checked by the driver in main.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Trace.h"

#include "core/Evaluator.h"
#include "core/ParallelEvaluator.h"
#include "gen/Differential.h"
#include "rtm/Transaction.h"
#include "workloads/Figure8.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  const char *Name;
  bool Sweep;          ///< Figure 8 sweep; otherwise the fuzz harness.
  unsigned Jobs;       ///< Worker threads.
  flexvec::core::SimMode Sim; ///< Sweeps only.
};

/// The workloads, in BENCHMARK.json order; null when \p Name is unknown.
const WorkloadSpec *findWorkload(const std::string &Name);

/// Iteration scale of the Figure 8 sweeps (the paper's configuration).
inline constexpr double SweepScale = 1.0;
/// Generated loops per fuzz repetition.
inline constexpr size_t FuzzCases = 1000;

/// Everything built before the first item starts; what setup_s times.
/// Sweeps fill the suite and sweep options, the fuzz workload the rest.
struct Setup {
  flexvec::workloads::Figure8Suite Suite;
  flexvec::core::SweepOptions Sweep;
  flexvec::gen::Envelope Env;
  flexvec::gen::CheckOptions Check;   ///< Shared by every case.
  std::vector<uint64_t> CaseSeeds;    ///< One per case.
  std::vector<uint64_t> StormSeeds;   ///< One per case.
};

Setup buildSetup(const WorkloadSpec &W, uint64_t Seed);

/// One untraced repetition.
struct RepResult {
  double WallS = 0;
  std::vector<double> ItemMs; ///< Per generated cell or per case.
  size_t Attempted = 0;
  size_t Failed = 0;
  /// Reproducer text for every failed item (DSL plus context).
  std::vector<std::string> Failures;
  /// Deterministic output that every repetition of one seed must repeat
  /// byte for byte, and the traced run must match: the --deterministic
  /// sweep payload, or the per-case verdicts.
  std::string Payload;
  double GeomeanFlexVec = 0; ///< Sweeps only.
};

RepResult runUntraced(const WorkloadSpec &W, const Setup &S);

/// Static instructions summed over every generated variant program of the
/// workload (every generated cell, or every case's compiled variants).
uint64_t codeSizeInstrs(const WorkloadSpec &W, const Setup &S);

/// Layer counters gathered by a traced repetition.
struct Counts {
  uint64_t Compiles = 0, VariantsGenerated = 0, VariantsRequested = 0;
  uint64_t CacheHits = 0, CacheMisses = 0, SingleFlightWaits = 0;
  /// Emulator counters over every machine run (emu spans and storm runs).
  uint64_t EmuInstructions = 0, EmuVectorOps = 0, EmuUnitStrideHits = 0;
  uint64_t EmuRtmRetries = 0, EmuRtmFallbacks = 0;
  /// Instructions retired inside emu.traced / emu.sinkless spans only
  /// (the numerator of emu.mips).
  uint64_t EmuSpanInstructions = 0;
  uint64_t TxBegins = 0, TxCommits = 0, TxAborts = 0, TxBytesLogged = 0;
  uint64_t TlbHits = 0, TlbMisses = 0, CowCopies = 0;
  uint64_t SimCalls = 0, SimDelivered = 0;
  uint64_t SimCycles = 0, SimInstructions = 0, SimUops = 0;
  /// Instructions the detailed model saw (all of them in full mode).
  uint64_t SampleDetailed = 0;

  /// Adds one machine run; \p InEmuSpan marks runs timed by an emu span.
  void addRun(const flexvec::core::RunOutcome &R, bool InEmuSpan);
  void addTx(const flexvec::rtm::TxStats &Tx);
  Counts &operator+=(const Counts &O);
};

/// One traced repetition.
struct TracedRep {
  double WallS = 0;
  unsigned Workers = 1;
  std::vector<Span> Spans;
  Counts C;
  size_t Attempted = 0;
  size_t Failed = 0;
  std::string Payload; ///< Must equal the untraced RepResult::Payload.
  double GeomeanFlexVec = 0;
};

TracedRep runTraced(const WorkloadSpec &W, const Setup &S);

/// Geomean of the FlexVec column's coverage-scaled speedup over every row
/// that generated it (the paper's Figure 8 number).
double geomeanFlexVec(const std::vector<flexvec::core::CellResult> &Cells);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
