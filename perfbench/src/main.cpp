//===- perfbench/src/main.cpp - Benchmark driver ---------------------------===//
//
//   flexvec-perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans PATH]
//
// Builds the workload's setup several times (setup_s is the median), then
// repeats the workload until S seconds have passed. With --trace 0 every
// repetition is untraced and the end-to-end metrics are reported. With
// --trace 1 untraced and traced repetitions alternate; the per-layer
// metrics come from the traced ones and trace.overhead_s is the difference
// of the two medians. Every metric is printed by name with its unit; the
// last stdout line is the JSON result. The run fails (exit 1,
// "correct": false) when an item fails, when the deterministic payload
// differs between repetitions, or when a traced repetition's payload
// differs from the untraced one's.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/ParallelEvaluator.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace flexvec;
using namespace perfbench;

namespace {

struct Args {
  const WorkloadSpec *W = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string SpansPath;
};

bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (*End || *S == '-')
    return false;
  Out = V;
  return true;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s expects a value\n", Flag.c_str());
      return false;
    }
    const char *Val = Argv[++I];
    uint64_t U = 0;
    if (Flag == "--workload") {
      A.W = findWorkload(Val);
      if (!A.W) {
        std::fprintf(stderr, "error: unknown workload '%s'\n", Val);
        return false;
      }
    } else if (Flag == "--seed" && parseUnsigned(Val, U)) {
      A.Seed = U;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseUnsigned(Val, U) && U > 0 &&
               U <= 600) {
      A.Seconds = static_cast<double>(U);
      HaveSeconds = true;
    } else if (Flag == "--trace" && parseUnsigned(Val, U) && U <= 1) {
      A.Trace = U == 1;
      HaveTrace = true;
    } else if (Flag == "--spans" && *Val) {
      A.SpansPath = Val;
    } else {
      std::fprintf(stderr, "error: bad option '%s %s'\n", Flag.c_str(), Val);
      return false;
    }
  }
  if (!A.W || !HaveSeed || !HaveSeconds || !HaveTrace) {
    std::fprintf(stderr, "error: --workload, --seed, --seconds and --trace "
                         "are required\n");
    return false;
  }
  return true;
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Times one setup sample: a batch of \p Batch builds, kept in \p Keep,
/// divided by the batch size, so that a microsecond-scale setup is not
/// lost in clock noise.
double setupSample(const WorkloadSpec &W, uint64_t Seed, unsigned Batch,
                   Setup &Keep) {
  Clock::time_point T0 = Clock::now();
  for (unsigned I = 0; I < Batch; ++I)
    Keep = buildSetup(W, Seed);
  return std::chrono::duration<double>(Clock::now() - T0).count() / Batch;
}

/// Peak resident memory of this process so far, in MiB.
double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<double> walls(const std::vector<RepResult> &Reps) {
  std::vector<double> Out;
  for (const RepResult &R : Reps)
    Out.push_back(R.WallS);
  return Out;
}

/// Per-layer metrics of one traced repetition.
std::vector<Metric> layerMetrics(const TracedRep &Rep) {
  std::vector<int64_t> Self = selfTimesNs(Rep.Spans);
  std::map<std::string, double> By = selfMsByName(Rep.Spans, Self, false);
  std::map<std::string, double> ByTag = selfMsByName(Rep.Spans, Self, true);
  auto ms = [&](const char *Span) {
    auto It = By.find(Span);
    return It == By.end() ? 0.0 : It->second;
  };
  auto ratio = [](double Num, double Den) { return Den > 0 ? Num / Den : 0; };
  const Counts &C = Rep.C;
  double WallMs = Rep.WallS * 1000.0;
  double CapacityMs = WallMs * Rep.Workers;

  double ItemMs = 0, LayerMs = 0;
  for (size_t I = 0; I < Rep.Spans.size(); ++I) {
    const Span &S = Rep.Spans[I];
    if (!S.Parent)
      continue; // The repetition's root span.
    std::string Name = S.Name;
    if (Name == "core.cell" || Name == "fuzz.case")
      ItemMs += static_cast<double>(S.durationNs()) / 1e6;
    if (Name != "fuzz.case") // Benchmark glue, left in trace.other_ms.
      LayerMs += static_cast<double>(Self[I]) / 1e6;
  }
  double EmuMs = ms("emu.traced") + ms("emu.sinkless");

  std::vector<Metric> M = {
      {"workloads.inputs_ms", ms("workloads.inputs"), "ms"},
      {"gen.generate_ms", ms("gen.generate"), "ms"},
      {"gen.inputs_ms", ms("gen.inputs"), "ms"},
      {"gen.check_self_ms", ms("gen.check"), "ms"},
      {"ir.roundtrip_ms", ms("ir.roundtrip"), "ms"},
      {"ir.reference_ms", ms("ir.reference"), "ms"},
      {"driver.compile_ms", ms("driver.compile"), "ms"},
      {"driver.compiles", double(C.Compiles), "count"},
      {"driver.variants_generated", double(C.VariantsGenerated), "count"},
      {"driver.variants_requested", double(C.VariantsRequested), "count"},
      {"core.cache_compile_ms", ms("core.cache_compile"), "ms"},
      {"core.cell_self_ms", ms("core.cell"), "ms"},
      {"core.storm_diff_ms", ms("core.storm_diff"), "ms"},
      {"core.cache.hits", double(C.CacheHits), "count"},
      {"core.cache.misses", double(C.CacheMisses), "count"},
      {"core.cache.single_flight_waits", double(C.SingleFlightWaits),
       "count"},
      {"core.pool.busy_share", ratio(ItemMs, CapacityMs), "ratio"},
      {"emu.sinkless_ms", ms("emu.sinkless"), "ms"},
      {"emu.traced_self_ms", ms("emu.traced"), "ms"},
  };
  for (unsigned V = 0; V < core::NumVariants; ++V) {
    std::string Tag = core::variantName(static_cast<core::VariantId>(V));
    M.push_back({"emu.traced_self_ms." + Tag, ByTag["emu.traced." + Tag],
                 "ms"});
  }
  M.insert(M.end(), {
      {"emu.instructions", double(C.EmuInstructions), "count"},
      {"emu.mips", ratio(double(C.EmuSpanInstructions), EmuMs * 1000.0),
       "MIPS"},
      {"emu.vector_ops", double(C.EmuVectorOps), "count"},
      {"emu.simd.fastpath.unit_stride_hits", double(C.EmuUnitStrideHits),
       "count"},
      {"emu.rtm_retries", double(C.EmuRtmRetries), "count"},
      {"emu.rtm_fallbacks", double(C.EmuRtmFallbacks), "count"},
      {"rtm.begins", double(C.TxBegins), "count"},
      {"rtm.commits", double(C.TxCommits), "count"},
      {"rtm.aborts", double(C.TxAborts), "count"},
      {"rtm.commit_ratio", ratio(double(C.TxCommits), double(C.TxBegins)),
       "ratio"},
      {"rtm.bytes_logged", double(C.TxBytesLogged), "bytes"},
      {"mem.tlb.hits", double(C.TlbHits), "count"},
      {"mem.tlb.misses", double(C.TlbMisses), "count"},
      {"mem.tlb.hit_ratio",
       ratio(double(C.TlbHits), double(C.TlbHits + C.TlbMisses)), "ratio"},
      {"mem.cow.page_copies", double(C.CowCopies), "count"},
      {"sim.onbatch_ms", ms("sim.onbatch"), "ms"},
  });
  for (unsigned V = 0; V < core::NumVariants; ++V) {
    std::string Tag = core::variantName(static_cast<core::VariantId>(V));
    M.push_back({"sim.onbatch_ms." + Tag, ByTag["sim.onbatch." + Tag], "ms"});
  }
  M.insert(M.end(), {
      {"sim.onbatch_calls", double(C.SimCalls), "count"},
      {"sim.ns_per_instr",
       ratio(ms("sim.onbatch") * 1e6, double(C.SimDelivered)), "ns"},
      {"sim.cycles", double(C.SimCycles), "count"},
      {"sim.instructions", double(C.SimInstructions), "count"},
      {"sim.uops", double(C.SimUops), "count"},
      {"sim.sample.detailed_share",
       ratio(double(C.SampleDetailed), double(C.SimInstructions)), "ratio"},
      {"trace.other_ms", CapacityMs - LayerMs, "ms"},
      {"geomean_speedup_flexvec", Rep.GeomeanFlexVec, "x"},
  });
  return M;
}

void printMetric(const Metric &M) {
  std::printf("  %-40s %.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: flexvec-perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const WorkloadSpec &W = *A.W;

  // Setup is timed in batches lasting at least 2 ms, once before every
  // untraced repetition (which then runs on the setup just built), so the
  // samples spread over the whole run.
  Setup S;
  unsigned Batch = 1;
  while (setupSample(W, A.Seed, Batch, S) * Batch < 0.002 &&
         Batch < (1u << 20))
    Batch *= 2;

  std::vector<double> SetupSamples;
  double PeakRss = 0;
  std::vector<RepResult> Reps;
  std::vector<TracedRep> Traced;
  Clock::time_point Start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - Start).count();
  };
  // At least two untraced repetitions (the payload must repeat) and, when
  // tracing, one traced repetition; untraced and traced alternate.
  // peak_rss_mb is the peak through setup and the first repetition, what
  // one run of the program holds: with two workers, later repetitions
  // inherit heap fragmentation from earlier ones and the peak creeps up.
  while (Reps.size() < 2 || (A.Trace && Traced.empty()) ||
         elapsed() < A.Seconds) {
    SetupSamples.push_back(setupSample(W, A.Seed, Batch, S));
    Reps.push_back(runUntraced(W, S));
    if (Reps.size() == 1)
      PeakRss = peakRssMb();
    if (A.Trace)
      Traced.push_back(runTraced(W, S));
  }
  double SetupS = median(SetupSamples);
  uint64_t CodeSize = codeSizeInstrs(W, S);

  std::vector<std::string> Problems;
  size_t Attempted = 0, Failed = 0;
  bool Repeats = true, TracedMatches = true;
  const std::vector<std::string> *Failures = nullptr;
  for (const RepResult &R : Reps) {
    Attempted += R.Attempted;
    Failed += R.Failed;
    Repeats &= R.Payload == Reps.front().Payload;
    if (!Failures && !R.Failures.empty())
      Failures = &R.Failures;
  }
  for (const TracedRep &T : Traced) {
    Attempted += T.Attempted;
    Failed += T.Failed;
    TracedMatches &= T.Payload == Reps.front().Payload;
  }
  if (Failures)
    for (const std::string &F : *Failures)
      std::fprintf(stderr, "FAIL %s\n", F.c_str());
  if (Failed)
    Problems.push_back(std::to_string(Failed) + " item(s) failed");
  if (!Repeats)
    Problems.push_back("deterministic payload differs between two "
                       "repetitions of one seed");
  if (!TracedMatches)
    Problems.push_back("traced run's deterministic outputs differ from the "
                       "untraced run's");

  // Per-item latency: p50 and p90 within each repetition, then the median
  // over repetitions.
  size_t ItemsPerRep = Reps.front().ItemMs.size();
  if (!percentileReportable(ItemsPerRep, 90))
    Problems.push_back("p90 of " + std::to_string(ItemsPerRep) +
                       " items leaves fewer than 10 samples beyond it");
  std::vector<double> P50s, P90s;
  for (const RepResult &R : Reps) {
    P50s.push_back(percentile(R.ItemMs, 50));
    P90s.push_back(percentile(R.ItemMs, 90));
  }
  double UntracedWall = median(walls(Reps));

  std::printf("workload %s, seed %llu: %zu untraced repetition(s)%s, %zu "
              "item(s) each\n",
              W.Name, static_cast<unsigned long long>(A.Seed), Reps.size(),
              A.Trace ? (", " + std::to_string(Traced.size()) +
                         " traced").c_str()
                      : "",
              ItemsPerRep);
  std::printf("fail_share %.6g (%zu failed of %zu attempted)\n",
              Attempted ? double(Failed) / double(Attempted) : 0.0, Failed,
              Attempted);
  if (W.Sweep)
    std::printf("geomean_speedup_flexvec %.6g x\n",
                Reps.front().GeomeanFlexVec);

  std::vector<Metric> Out;
  if (!A.Trace) {
    Out = {
        {"wall_s", UntracedWall, "s"},
        {"item_ms_p50", median(P50s), "ms"},
        {"item_ms_p90", median(P90s), "ms"},
        {"setup_s", SetupS, "s"},
        {"peak_rss_mb", PeakRss, "MB"},
        {"code_size_instrs", double(CodeSize), "count"},
    };
    std::printf("end-to-end metrics (medians over %zu repetitions; item "
                "percentiles over %zu items per repetition):\n",
                Reps.size(), ItemsPerRep);
  } else {
    // Median of each per-layer metric over the traced repetitions; counts
    // repeat exactly, so only times move.
    std::vector<std::vector<Metric>> PerRep;
    std::vector<double> TracedWalls;
    for (const TracedRep &T : Traced) {
      PerRep.push_back(layerMetrics(T));
      TracedWalls.push_back(T.WallS);
    }
    for (size_t I = 0; I < PerRep.front().size(); ++I) {
      std::vector<double> Values;
      for (const std::vector<Metric> &R : PerRep)
        Values.push_back(R[I].Value);
      Out.push_back({PerRep.front()[I].Name, median(Values),
                     PerRep.front()[I].Unit});
    }
    double TracedWall = median(TracedWalls);
    Out.push_back({"trace.overhead_s", TracedWall - UntracedWall, "s"});

    // Accounting: the layer self times plus trace.other_ms make up the
    // traced wall time times the worker count.
    const TracedRep &Last = Traced.back();
    std::printf("traced wall %.6g s x %u worker(s), untraced wall %.6g s; "
                "last traced repetition's self time by span:\n",
                Last.WallS, Last.Workers, UntracedWall);
    double Sum = 0;
    std::vector<int64_t> Self = selfTimesNs(Last.Spans);
    for (const auto &[Name, Ms] : selfMsByName(Last.Spans, Self, false)) {
      if (Name == "sweep" || Name == "fuzz")
        continue; // Roots: their self time is the uncovered time.
      std::printf("  %-24s %10.3f ms\n", Name.c_str(), Ms);
      Sum += Ms;
    }
    double Capacity = Last.WallS * 1000.0 * Last.Workers;
    std::printf("  spans %.3f ms + uncovered %.3f ms = %.3f ms\n", Sum,
                Capacity - Sum, Capacity);
    if (Capacity - Sum < -0.01 * Capacity)
      Problems.push_back("span self times exceed the traced wall time");
    if (!A.SpansPath.empty() && !writeSpans(A.SpansPath, Last.Spans))
      Problems.push_back("cannot write spans to " + A.SpansPath);
    std::printf("per-layer metrics (medians over %zu traced "
                "repetitions):\n",
                Traced.size());
  }
  for (const Metric &M : Out) {
    if (!validMetricName(M.Name))
      Problems.push_back("invalid metric name " + M.Name);
    printMetric(M);
  }

  for (const std::string &P : Problems)
    std::fprintf(stderr, "error: %s\n", P.c_str());
  bool Correct = Problems.empty();
  std::string Result = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(Attempted) +
                     ", \"failed\": " + std::to_string(Failed) +
                     ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Out[I].Value);
    Result += (I ? ", \"" : "\"") + Out[I].Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + Out[I].Unit + "\"}";
  }
  Result += "}}";
  std::printf("%s\n", Result.c_str());
  return Correct ? 0 : 1;
}
