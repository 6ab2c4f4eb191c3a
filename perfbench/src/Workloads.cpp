//===- perfbench/src/Workloads.cpp ----------------------------------------===//
//
// The traced runners below mirror core/ParallelEvaluator.cpp (evalCell and
// the runSweep fan-in) and gen/Differential.cpp (checkLoop) call for call,
// for the configurations the workloads use (no chaos-mode fault seed, the
// 512-bit vector width, no predication). When either file changes its call
// sequence, the exactness check in main.cpp fails until these follow.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "core/FaultHarness.h"
#include "driver/Remarks.h"
#include "ir/Parser.h"
#include "sim/OooCore.h"
#include "sim/Sampled.h"
#include "support/Hash.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <mutex>

using namespace flexvec;
using namespace perfbench;

namespace {

constexpr WorkloadSpec Specs[] = {
    {"figure8_full", true, 1, core::SimMode::Full},
    {"figure8_sampled_j2", true, 2, core::SimMode::Sampled},
    {"fuzz_storm", false, 1, core::SimMode::Full},
};

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double msSince(Clock::time_point T0) { return secondsSince(T0) * 1000.0; }

} // namespace

const WorkloadSpec *perfbench::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &W : Specs)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

Setup perfbench::buildSetup(const WorkloadSpec &W, uint64_t Seed) {
  Setup S;
  if (W.Sweep) {
    S.Suite = workloads::buildFigure8Suite(SweepScale);
    S.Sweep.Jobs = W.Jobs;
    S.Sweep.Seed = Seed;
    S.Sweep.Scale = SweepScale;
    S.Sweep.Vec = isa::VectorConfig();
    S.Sweep.Sim = W.Sim;
    return S;
  }
  // flexvec-fuzz's defaults: widened envelope, two rounds, trips up to
  // 400, storm on, per-case seeds derived from (seed, index).
  S.Env = gen::Envelope::widened();
  S.Check.Vec = isa::VectorConfig();
  S.Check.Rounds = 2;
  S.Check.MaxTrip = 400;
  S.Check.Inputs.IndexMask = S.Env.IndexMask;
  S.Check.Inputs.IndexBound = S.Env.TableSize;
  S.Check.Inputs.ArraySlack = S.Env.MaxAffineOffset + 4;
  S.CaseSeeds.resize(FuzzCases);
  S.StormSeeds.resize(FuzzCases);
  for (size_t I = 0; I < FuzzCases; ++I) {
    S.CaseSeeds[I] = deriveStreamSeed(Seed, static_cast<uint64_t>(I));
    S.StormSeeds[I] = deriveStreamSeed(S.CaseSeeds[I], 0xfa117);
  }
  return S;
}

double perfbench::geomeanFlexVec(const std::vector<core::CellResult> &Cells) {
  std::vector<double> Overall;
  for (const core::CellResult &C : Cells)
    if (C.Variant == core::variantName(core::VariantId::FlexVec) &&
        C.Generated && C.Overall > 0)
      Overall.push_back(C.Overall);
  return Overall.empty() ? 0 : geomean(Overall);
}

//===----------------------------------------------------------------------===//
// Untraced runners
//===----------------------------------------------------------------------===//

namespace {

RepResult untracedSweep(const Setup &S) {
  RepResult Rep;
  core::CompileCache Cache;
  Clock::time_point T0 = Clock::now();
  core::SweepResult R = core::runSweep(S.Suite.Workloads, S.Sweep, &Cache);
  Rep.WallS = secondsSince(T0);
  for (const core::CellResult &C : R.Cells) {
    if (!C.Generated)
      continue;
    ++Rep.Attempted;
    Rep.ItemMs.push_back(C.Times.CompileMs + C.Times.InputsMs +
                         C.Times.EmulateMs + C.Times.SimulateMs);
    if (C.Correct)
      continue;
    ++Rep.Failed;
    std::string Msg = C.Benchmark + "/" + C.Variant +
                      " diverged from the reference interpreter\n";
    for (const core::SweepWorkload &W : S.Suite.Workloads)
      if (W.Name == C.Benchmark && W.F)
        Msg += "DSL reproducer:\n" + ir::printLoopDsl(*W.F);
    Rep.Failures.push_back(std::move(Msg));
  }
  Rep.Payload = core::benchJson(R, /*Deterministic=*/true).dump();
  Rep.GeomeanFlexVec = geomeanFlexVec(R.Cells);
  return Rep;
}

struct CaseOut {
  gen::CheckResult Check;
  double Ms = 0;
};

std::string verdictLine(size_t I, const gen::CheckResult &C) {
  return std::to_string(I) + " " + gen::failureClassName(C.Class) + " " +
         C.Variant + "\n";
}

gen::CheckOptions caseOptions(const Setup &S, size_t I) {
  gen::CheckOptions CO = S.Check;
  CO.StormSeed = S.StormSeeds[I];
  return CO;
}

RepResult untracedFuzz(const WorkloadSpec &W, const Setup &S) {
  RepResult Rep;
  Clock::time_point T0 = Clock::now();
  ThreadPool Pool(W.Jobs);
  std::vector<CaseOut> Cases =
      Pool.map<CaseOut>(S.CaseSeeds.size(), [&](size_t I) {
        CaseOut Out;
        Clock::time_point C0 = Clock::now();
        gen::GeneratedLoop G = gen::generateLoop(S.CaseSeeds[I], S.Env);
        Out.Check = gen::checkLoop(*G.F, S.CaseSeeds[I], caseOptions(S, I));
        Out.Ms = msSince(C0);
        return Out;
      });
  Rep.WallS = secondsSince(T0);
  for (size_t I = 0; I < Cases.size(); ++I) {
    const gen::CheckResult &C = Cases[I].Check;
    ++Rep.Attempted;
    Rep.ItemMs.push_back(Cases[I].Ms);
    Rep.Payload += verdictLine(I, C);
    if (C.ok())
      continue;
    ++Rep.Failed;
    // The check's detail ends with the loop's DSL.
    Rep.Failures.push_back("case " + std::to_string(I) + " (case seed " +
                           std::to_string(S.CaseSeeds[I]) + "): " +
                           gen::failureClassName(C.Class) + " " + C.Variant +
                           "\n" + C.Detail);
  }
  return Rep;
}

} // namespace

RepResult perfbench::runUntraced(const WorkloadSpec &W, const Setup &S) {
  return W.Sweep ? untracedSweep(S) : untracedFuzz(W, S);
}

uint64_t perfbench::codeSizeInstrs(const WorkloadSpec &W, const Setup &S) {
  auto sumVariants = [](const core::PipelineResult &PR) {
    uint64_t N = 0;
    for (unsigned V = 0; V < core::NumVariants; ++V)
      if (const codegen::CompiledLoop *CL =
              core::selectVariant(PR, static_cast<core::VariantId>(V)))
        N += CL->Prog.size();
    return N;
  };
  uint64_t Total = 0;
  if (W.Sweep) {
    core::CompileCache Cache;
    for (const core::SweepWorkload &SW : S.Suite.Workloads)
      Total += sumVariants(*Cache.getOrCompile(*SW.F, S.Sweep.RtmTile, nullptr,
                                               S.Sweep.Vec,
                                               S.Sweep.Predicated));
    return Total;
  }
  driver::DriverOptions DOpts;
  DOpts.RtmTile = S.Check.RtmTile;
  DOpts.Vec = S.Check.Vec;
  DOpts.Predicated = S.Check.Predicated;
  for (uint64_t Seed : S.CaseSeeds)
    Total += sumVariants(
        driver::compileLoop(*gen::generateLoop(Seed, S.Env).F, DOpts));
  return Total;
}

//===----------------------------------------------------------------------===//
// Layer counters
//===----------------------------------------------------------------------===//

void Counts::addRun(const core::RunOutcome &R, bool InEmuSpan) {
  const emu::ExecStats &E = R.Exec.Stats;
  EmuInstructions += E.Instructions;
  EmuVectorOps += E.VectorOps;
  EmuUnitStrideHits += E.SimdUnitStrideHits;
  EmuRtmRetries += E.RtmRetries;
  EmuRtmFallbacks += E.RtmFallbacks;
  if (InEmuSpan)
    EmuSpanInstructions += E.Instructions;
  TlbHits += R.Mem.TlbHits;
  TlbMisses += R.Mem.TlbMisses;
  CowCopies += R.Mem.CowCopies;
}

void Counts::addTx(const rtm::TxStats &Tx) {
  TxBegins += Tx.Begins;
  TxCommits += Tx.Commits;
  TxAborts += Tx.Aborts;
  TxBytesLogged += Tx.BytesLogged;
}

Counts &Counts::operator+=(const Counts &O) {
  Compiles += O.Compiles;
  VariantsGenerated += O.VariantsGenerated;
  VariantsRequested += O.VariantsRequested;
  CacheHits += O.CacheHits;
  CacheMisses += O.CacheMisses;
  SingleFlightWaits += O.SingleFlightWaits;
  EmuInstructions += O.EmuInstructions;
  EmuVectorOps += O.EmuVectorOps;
  EmuUnitStrideHits += O.EmuUnitStrideHits;
  EmuRtmRetries += O.EmuRtmRetries;
  EmuRtmFallbacks += O.EmuRtmFallbacks;
  EmuSpanInstructions += O.EmuSpanInstructions;
  TxBegins += O.TxBegins;
  TxCommits += O.TxCommits;
  TxAborts += O.TxAborts;
  TxBytesLogged += O.TxBytesLogged;
  TlbHits += O.TlbHits;
  TlbMisses += O.TlbMisses;
  CowCopies += O.CowCopies;
  SimCalls += O.SimCalls;
  SimDelivered += O.SimDelivered;
  SimCycles += O.SimCycles;
  SimInstructions += O.SimInstructions;
  SimUops += O.SimUops;
  SampleDetailed += O.SampleDetailed;
  return *this;
}

//===----------------------------------------------------------------------===//
// Traced sweep
//===----------------------------------------------------------------------===//

namespace {

void countVariants(const core::PipelineResult &PR, Counts &C) {
  ++C.Compiles;
  C.VariantsRequested += core::NumVariants;
  for (unsigned V = 0; V < core::NumVariants; ++V)
    C.VariantsGenerated +=
        core::selectVariant(PR, static_cast<core::VariantId>(V)) != nullptr;
}

/// Forwards the emulator's trace to the timing model, timing each call.
class TimedSink final : public emu::TraceSink {
public:
  explicit TimedSink(emu::TraceSink &Inner) : Inner(Inner) {}

  void onInstr(const emu::DynInstr &DI) override {
    int64_t T0 = nowNs();
    Inner.onInstr(DI);
    Ns += nowNs() - T0;
    ++Calls;
    ++Delivered;
  }
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    int64_t T0 = nowNs();
    Inner.onBatch(Batch, N);
    Ns += nowNs() - T0;
    ++Calls;
    Delivered += N;
  }

  int64_t Ns = 0;
  uint64_t Calls = 0, Delivered = 0;

private:
  emu::TraceSink &Inner;
};

/// Row-shared inputs and reference outcome, as in runSweep.
struct SharedInputs {
  std::once_flag Once;
  core::WorkloadInstance In;
  core::RunOutcome Ref;
};

struct TracedCell {
  core::CellResult Cell;
  Counts C;
};

/// evalCell with a span around each layer call.
TracedCell tracedCell(Tracer &T, uint32_t Root, size_t Index,
                      const core::SweepWorkload &W, core::VariantId V,
                      const core::SweepOptions &Opts,
                      core::CompileCache &Cache, SharedInputs &SI) {
  TracedCell TC;
  core::CellResult &Cell = TC.Cell;
  const char *Variant = core::variantName(V);
  Tracer::Scope CellSpan(T, "core.cell", Index, Root, Variant);
  Cell.Benchmark = W.Name;
  Cell.Group = W.Group;
  Cell.Variant = Variant;
  Cell.Coverage = W.Coverage;
  Cell.PaperSpeedup = W.PaperSpeedup;

  std::shared_ptr<const core::PipelineResult> PR;
  {
    Tracer::Scope S(T, "core.cache_compile", Index, CellSpan.id(), Variant);
    bool WasHit = false;
    PR = Cache.getOrCompile(*W.F, Opts.RtmTile, &WasHit, Opts.Vec,
                            Opts.Predicated);
    if (!WasHit)
      countVariants(*PR, TC.C);
  }

  Cell.Remarks = PR->Remarks.toJsonFor(Cell.Variant);
  obs::Counter &Applied = Cell.Metrics.counter("driver.remarks.applied");
  obs::Counter &Missed = Cell.Metrics.counter("driver.remarks.missed");
  for (const driver::Remark &Rk : PR->Remarks.remarks()) {
    if (Rk.Variant != Cell.Variant)
      continue;
    if (Rk.Kind == driver::RemarkKind::Applied)
      Applied.inc();
    else if (Rk.Kind == driver::RemarkKind::Missed)
      Missed.inc();
  }

  const codegen::CompiledLoop *CL = core::selectVariant(*PR, V);
  if (!CL)
    return TC;
  Cell.Generated = true;

  std::call_once(SI.Once, [&] {
    {
      Tracer::Scope S(T, "workloads.inputs", Index, CellSpan.id());
      Rng R(deriveStreamSeed(Opts.Seed, fnv1a64(W.Name)));
      SI.In = W.Gen(R);
    }
    Tracer::Scope S(T, "ir.reference", Index, CellSpan.id());
    SI.Ref = core::runReferenceMulti(*W.F, SI.In.Image, SI.In.Invocations);
  });

  sim::OooCore Core;
  sim::SampledCore Sampler(Core, Opts.Sample);
  bool Sampled = Opts.Sim == core::SimMode::Sampled;
  TimedSink Sink(Sampled ? static_cast<emu::TraceSink &>(Sampler) : Core);
  core::RunOutcome Out;
  {
    Tracer::Scope S(T, "emu.traced", Index, CellSpan.id(), Variant);
    Out = core::runProgramMulti(*W.F, *CL, SI.In.Image, SI.In.Invocations,
                                &Sink);
    T.addFolded("sim.onbatch", Variant, Index, S.id(), S.startNs(), Sink.Ns,
                Sink.Calls);
  }
  TC.C.SimCalls += Sink.Calls;
  TC.C.SimDelivered += Sink.Delivered;
  TC.C.addRun(Out, /*InEmuSpan=*/true);
  TC.C.addTx(Out.Tx);

  Cell.Correct = core::outcomesMatch(*W.F, SI.Ref, Out);
  sim::SimStats Stats = Core.stats();
  sim::SampledStats SS;
  if (Sampled) {
    SS = Sampler.stats();
    Cell.Cycles = SS.EstimatedCycles;
    Cell.Instructions = SS.Instructions;
    TC.C.SampleDetailed += SS.DetailedInstructions;
  } else {
    Cell.Cycles = Stats.Cycles;
    Cell.Instructions = Stats.Instructions;
    TC.C.SampleDetailed += Stats.Instructions;
  }
  Cell.Uops = Stats.Uops;
  Cell.EmuInstructions = Out.Exec.Stats.Instructions;
  TC.C.SimCycles += Cell.Cycles;
  TC.C.SimInstructions += Cell.Instructions;
  TC.C.SimUops += Cell.Uops;

  emu::recordMetrics(Out.Exec.Stats, Cell.Metrics);
  rtm::recordMetrics(Out.Tx, Cell.Metrics);
  if (Out.Tx.Begins)
    Cell.Metrics.gauge("rtm.fallback_rate")
        .set(static_cast<double>(Out.Exec.Stats.RtmFallbacks) /
             static_cast<double>(Out.Tx.Begins));
  sim::recordMetrics(Stats, Cell.Metrics);
  if (Sampled) {
    Cell.Metrics.counter("sim.sample.windows").inc(SS.Windows);
    Cell.Metrics.counter("sim.sample.measured_instructions")
        .inc(SS.MeasuredInstructions);
    Cell.Metrics.counter("sim.sample.detailed_instructions")
        .inc(SS.DetailedInstructions);
    Cell.Metrics.counter("sim.sample.estimated_cycles")
        .inc(SS.EstimatedCycles);
  }
  mem::recordMetrics(Out.Mem, Cell.Metrics);
  if (Out.HasDispatch) {
    const driver::DispatchCounts &D = Out.Dispatch;
    Cell.Metrics.counter("dispatch.guard.pass").inc(D.GuardPass);
    Cell.Metrics.counter("dispatch.guard.fail").inc(D.GuardFail);
    Cell.Metrics.counter("dispatch.demotions").inc(D.Demotions);
    Cell.Metrics.counter("dispatch.speculative_invocations")
        .inc(D.Invocations);
    for (const driver::Remark &Rk : driver::dispatchRemarks(D))
      Cell.Remarks.push(Rk.toJson());
  }
  return TC;
}

/// runSweep's ordered fan-in: speedups against the scalar column, then
/// per-group geomeans over the FlexVec column.
void fanIn(core::SweepResult &R, size_t Rows) {
  std::vector<std::pair<std::string, std::vector<double>>> ByGroup;
  auto groupBucket = [&](const std::string &G) -> std::vector<double> & {
    for (auto &Entry : ByGroup)
      if (Entry.first == G)
        return Entry.second;
    ByGroup.emplace_back(G, std::vector<double>());
    return ByGroup.back().second;
  };
  for (size_t W = 0; W < Rows; ++W) {
    const core::CellResult &Scalar = R.Cells[W * core::NumVariants];
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      core::CellResult &Cell = R.Cells[W * core::NumVariants + V];
      if (!Cell.Generated || !Cell.Cycles || !Scalar.Cycles)
        continue;
      Cell.HotSpeedup = static_cast<double>(Scalar.Cycles) /
                        static_cast<double>(Cell.Cycles);
      Cell.Overall =
          core::coverageScaledSpeedup(Cell.HotSpeedup, Cell.Coverage);
      if (V == static_cast<unsigned>(core::VariantId::FlexVec))
        groupBucket(Cell.Group).push_back(Cell.Overall);
    }
  }
  for (const auto &Entry : ByGroup) {
    double G = geomean(Entry.second);
    R.GroupGeomeans.emplace_back(Entry.first, G);
    if (Entry.first == "SPEC")
      R.SpecGeomean = G;
    else if (Entry.first == "APPS")
      R.AppsGeomean = G;
  }
}

TracedRep tracedSweep(const Setup &S) {
  TracedRep Rep;
  Tracer T;
  const std::vector<core::SweepWorkload> &Rows = S.Suite.Workloads;
  const core::SweepOptions &Opts = S.Sweep;
  core::CompileCache Cache;
  core::SweepResult R;
  std::vector<TracedCell> Cells;
  Clock::time_point T0 = Clock::now();
  {
    Tracer::Scope Root(T, "sweep", 0, 0);
    std::vector<SharedInputs> Shared(Rows.size());
    ThreadPool Pool(Opts.Jobs);
    Rep.Workers = Pool.workerCount();
    Cells = Pool.map<TracedCell>(
        Rows.size() * core::NumVariants, [&](size_t I) {
          return tracedCell(T, Root.id(), I, Rows[I / core::NumVariants],
                            static_cast<core::VariantId>(
                                I % core::NumVariants),
                            Opts, Cache, Shared[I / core::NumVariants]);
        });
    for (TracedCell &TC : Cells)
      R.Cells.push_back(std::move(TC.Cell));
    fanIn(R, Rows.size());
  }
  Rep.WallS = secondsSince(T0);

  for (const TracedCell &TC : Cells)
    Rep.C += TC.C;
  Rep.C.CacheHits = Cache.hits();
  Rep.C.CacheMisses = Cache.misses();
  Rep.C.SingleFlightWaits = Cache.waits();
  for (const core::CellResult &C : R.Cells) {
    if (!C.Generated)
      continue;
    ++Rep.Attempted;
    Rep.Failed += !C.Correct;
  }
  R.CacheHits = Cache.hits();
  R.CacheMisses = Cache.misses();
  R.Seed = Opts.Seed;
  R.Scale = Opts.Scale;
  R.Trips = 1;
  R.Vec = Opts.Vec;
  R.Sim = Opts.Sim;
  R.Sample = Opts.Sample;
  Rep.Payload = core::benchJson(R, /*Deterministic=*/true).dump();
  Rep.GeomeanFlexVec = geomeanFlexVec(R.Cells);
  Rep.Spans = T.spans();
  return Rep;
}

//===----------------------------------------------------------------------===//
// Traced fuzz
//===----------------------------------------------------------------------===//

gen::CheckResult fail(gen::FailureClass C, std::string Variant,
                      std::string Detail) {
  gen::CheckResult R;
  R.Class = C;
  R.Variant = std::move(Variant);
  R.Detail = std::move(Detail);
  return R;
}

/// One round's trip count and convention inputs, as checkLoop draws them.
void roundInputs(Tracer &T, uint32_t Parent, size_t Item,
                 const ir::LoopFunction &F, Rng &R,
                 const gen::CheckOptions &Opts, gen::InputPlan &Plan,
                 mem::Memory &M, ir::Bindings &B) {
  Tracer::Scope S(T, "gen.inputs", Item, Parent);
  Plan = Opts.Inputs;
  Plan.Trip = Opts.MinTrip +
              static_cast<int64_t>(R.nextBelow(
                  static_cast<uint64_t>(Opts.MaxTrip - Opts.MinTrip + 1)));
  B = ir::Bindings::forFunction(F);
  gen::buildConventionInputs(F, R, Plan, M, B);
}

/// gen::checkLoop with a span around each layer call.
gen::CheckResult tracedCheck(Tracer &T, uint32_t Parent, size_t Item,
                             const ir::LoopFunction &F, uint64_t InputSeed,
                             const gen::CheckOptions &Opts, Counts &C) {
  Tracer::Scope Check(T, "gen.check", Item, Parent);
  std::string Dsl;
  {
    Tracer::Scope S(T, "ir.roundtrip", Item, Check.id());
    Dsl = ir::printLoopDsl(F);
    ir::ParseResult P = ir::parseLoop(Dsl);
    if (!P)
      return fail(gen::FailureClass::RoundTrip, "",
                  "reparse failed: " + P.Error + "\n" + Dsl);
    if (ir::printLoopDsl(*P.F) != Dsl)
      return fail(gen::FailureClass::RoundTrip, "",
                  "re-print differs from original:\n" + Dsl);
  }

  driver::DriverOptions DOpts;
  DOpts.RtmTile = Opts.RtmTile;
  DOpts.Vec = Opts.Vec;
  DOpts.Predicated = Opts.Predicated;
  core::PipelineResult PR;
  {
    Tracer::Scope S(T, "driver.compile", Item, Check.id());
    PR = driver::compileLoop(F, DOpts);
  }
  countVariants(PR, C);
  if (!PR.Plan.Vectorizable)
    return fail(gen::FailureClass::NotVectorizable, "",
                PR.Plan.Reason + "\n" + Dsl);

  for (unsigned V = 1; V < core::NumVariants; ++V) {
    const char *Name = core::variantName(static_cast<core::VariantId>(V));
    bool Generated =
        core::selectVariant(PR, static_cast<core::VariantId>(V)) != nullptr;
    bool Applied = false, Missed = false;
    for (const driver::Remark &Rk : PR.Remarks.remarks()) {
      if (Rk.Pass != "lower" || Rk.Variant != Name)
        continue;
      Applied |= Rk.Kind == driver::RemarkKind::Applied;
      Missed |= Rk.Kind == driver::RemarkKind::Missed;
    }
    if (Generated && !Applied)
      return fail(gen::FailureClass::MissingApplied, Name,
                  "generated without an applied remark\n" + Dsl);
    if (!Generated && !Missed)
      return fail(gen::FailureClass::SilentDecline, Name,
                  "declined without a missed remark\n" + Dsl);
  }

  for (int Round = 0; Round < Opts.Rounds; ++Round) {
    Rng R(deriveStreamSeed(InputSeed, static_cast<uint64_t>(Round)));
    gen::InputPlan Plan;
    mem::Memory M;
    ir::Bindings B;
    roundInputs(T, Check.id(), Item, F, R, Opts, Plan, M, B);
    std::vector<ir::Bindings> Invocations{B};

    core::RunOutcome Ref;
    {
      Tracer::Scope S(T, "ir.reference", Item, Check.id());
      Ref = core::runReferenceMulti(F, M, Invocations);
    }
    if (!Ref.Ok)
      return fail(gen::FailureClass::RunError, "reference",
                  "round " + std::to_string(Round) + ": " + Ref.Error + "\n" +
                      Dsl);
    for (unsigned V = 0; V < core::NumVariants; ++V) {
      const codegen::CompiledLoop *CL =
          core::selectVariant(PR, static_cast<core::VariantId>(V));
      if (!CL)
        continue;
      const char *Name = core::variantName(static_cast<core::VariantId>(V));
      core::RunOutcome Out;
      {
        Tracer::Scope S(T, "emu.sinkless", Item, Check.id(), Name);
        Out = core::runProgramMulti(F, *CL, M, Invocations);
      }
      C.addRun(Out, /*InEmuSpan=*/true);
      C.addTx(Out.Tx);
      std::string Ctx = std::string(Name) + " (round " +
                        std::to_string(Round) + ", trip " +
                        std::to_string(Plan.Trip) + ")";
      if (!Out.Ok)
        return fail(gen::FailureClass::RunError, Name,
                    Ctx + ": " + Out.Error + "\n" + Dsl);
      if (!core::outcomesMatch(F, Ref, Out))
        return fail(gen::FailureClass::Mismatch, Name,
                    Ctx + " diverges from the reference\n" + Dsl);
    }
  }

  if (Opts.StormSeed) {
    Rng R(deriveStreamSeed(InputSeed, 0x5702));
    gen::InputPlan Plan;
    mem::Memory M;
    ir::Bindings B;
    roundInputs(T, Check.id(), Item, F, R, Opts, Plan, M, B);
    std::vector<ir::Bindings> Invocations(Opts.StormInvocations, B);

    for (core::VariantId V :
         {core::VariantId::Rtm, core::VariantId::Adaptive}) {
      const codegen::CompiledLoop *CL = core::selectVariant(PR, V);
      if (!CL)
        continue;
      core::FaultPlan FP;
      FP.Tx.Seed = deriveStreamSeed(Opts.StormSeed, static_cast<uint64_t>(V));
      FP.Tx.AbortProb = Opts.StormAbortProb;
      FP.Tx.Reason = rtm::AbortReason::Conflict;
      core::DiffVerdict Verdict;
      {
        Tracer::Scope S(T, "core.storm_diff", Item, Check.id(),
                        core::variantName(V));
        Verdict = core::runDifferentialMulti(F, PR.Scalar, *CL, M,
                                             Invocations, FP);
      }
      for (const core::FaultedRun *Run : {&Verdict.Scalar, &Verdict.Vector}) {
        C.addRun(Run->Outcome, /*InEmuSpan=*/false);
        C.addTx(Run->Tx);
      }
      if (!Verdict.Equivalent)
        return fail(gen::FailureClass::StormDivergence, core::variantName(V),
                    Verdict.Detail + "\n" + Dsl);
    }
  }
  return gen::CheckResult();
}

struct TracedCase {
  gen::CheckResult Check;
  Counts C;
};

TracedRep tracedFuzz(const WorkloadSpec &W, const Setup &S) {
  TracedRep Rep;
  Tracer T;
  std::vector<TracedCase> Cases;
  Clock::time_point T0 = Clock::now();
  {
    Tracer::Scope Root(T, "fuzz", 0, 0);
    ThreadPool Pool(W.Jobs);
    Rep.Workers = Pool.workerCount();
    Cases = Pool.map<TracedCase>(S.CaseSeeds.size(), [&](size_t I) {
      TracedCase TC;
      Tracer::Scope Case(T, "fuzz.case", I, Root.id());
      gen::GeneratedLoop G;
      {
        Tracer::Scope Gen(T, "gen.generate", I, Case.id());
        G = gen::generateLoop(S.CaseSeeds[I], S.Env);
      }
      TC.Check = tracedCheck(T, Case.id(), I, *G.F, S.CaseSeeds[I],
                             caseOptions(S, I), TC.C);
      return TC;
    });
  }
  Rep.WallS = secondsSince(T0);
  for (size_t I = 0; I < Cases.size(); ++I) {
    Rep.C += Cases[I].C;
    ++Rep.Attempted;
    Rep.Failed += !Cases[I].Check.ok();
    Rep.Payload += verdictLine(I, Cases[I].Check);
  }
  Rep.Spans = T.spans();
  return Rep;
}

} // namespace

TracedRep perfbench::runTraced(const WorkloadSpec &W, const Setup &S) {
  return W.Sweep ? tracedSweep(S) : tracedFuzz(W, S);
}
