//===- tests/CliSmokeTest.cpp - Driver binary smoke tests ------------------===//
//
// Runs the installed flexvec-cli, flexvec-bench and flexvec-fuzz binaries
// as a user would and checks the argument-parsing contract: unknown flags
// and malformed values exit with status 2 and print a usage hint, valid
// invocations exit 0. Malformed FLEXVEC_* environment knobs fail too.
// Binary paths come from CMake ($<TARGET_FILE:...>).
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <sys/wait.h>

namespace {

struct CmdResult {
  int Exit = -1;
  std::string Output; ///< stdout + stderr, interleaved.
};

CmdResult run(const std::string &Cmd) {
  CmdResult R;
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(P);
  if (WIFEXITED(Status))
    R.Exit = WEXITSTATUS(Status);
  return R;
}

const std::string Cli = FLEXVEC_CLI_PATH;
const std::string Bench = FLEXVEC_BENCH_PATH;
const std::string Argmin =
    std::string(FLEXVEC_SOURCE_DIR) + "/examples/loops/argmin.fv";

void expectRejected(const std::string &Cmd, const std::string &Needle) {
  CmdResult R = run(Cmd);
  EXPECT_EQ(R.Exit, 2) << Cmd << "\n" << R.Output;
  EXPECT_NE(R.Output.find(Needle), std::string::npos)
      << Cmd << ": expected '" << Needle << "' in:\n" << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos)
      << Cmd << ": expected a usage hint in:\n" << R.Output;
}

TEST(CliSmoke, UnknownFlagRejected) {
  expectRejected(Cli + " --frobnicate " + Argmin, "unknown option");
}

TEST(CliSmoke, MalformedTripRejected) {
  expectRejected(Cli + " --trip=abc " + Argmin, "--trip");
  expectRejected(Cli + " --trip= " + Argmin, "--trip");
  expectRejected(Cli + " --trip=0 " + Argmin, "--trip");
}

TEST(CliSmoke, MalformedNumericFlagsRejected) {
  expectRejected(Cli + " --seed=12x " + Argmin, "--seed");
  expectRejected(Cli + " --jobs=-3 " + Argmin, "--jobs");
  expectRejected(Cli + " --tx-abort-prob=1.5 " + Argmin, "--tx-abort-prob");
}

// Values above a flag's ceiling used to crash the process (thread spawn
// failure, std::bad_alloc, OOM kill); they are usage errors now.
TEST(CliSmoke, JobsAboveCeilingRejected) {
  expectRejected(Cli + " --jobs=1025 " + Argmin, "--jobs");
  expectRejected(Cli + " --jobs=99999999 " + Argmin, "--jobs");
}

TEST(CliSmoke, MalformedVlRejected) {
  // The --vl contract mirrors --sim-mode: non-power-of-two, out-of-range,
  // and malformed values all exit 2 with a usage hint.
  expectRejected(Cli + " --vl=abc " + Argmin, "--vl");
  expectRejected(Cli + " --vl= " + Argmin, "--vl");
  expectRejected(Cli + " --vl=384 " + Argmin, "--vl");
  expectRejected(Cli + " --vl=64 " + Argmin, "--vl");
  expectRejected(Cli + " --vl=4096 " + Argmin, "--vl");
}

TEST(CliSmoke, ValidVlRunSucceeds) {
  for (const char *Vl : {"128", "256", "512", "1024", "2048"}) {
    CmdResult R =
        run(Cli + " " + Argmin + " --trip=64 --vl=" + Vl + " --run");
    EXPECT_EQ(R.Exit, 0) << "--vl=" << Vl << "\n" << R.Output;
  }
}

TEST(CliSmoke, PredicatedRunSucceeds) {
  CmdResult R = run(Cli + " " + Argmin +
                    " --trip=64 --vl=256 --predicated --run");
  EXPECT_EQ(R.Exit, 0) << R.Output;
}

TEST(CliSmoke, MalformedSetRejected) {
  expectRejected(Cli + " --set=foo " + Argmin, "--set");
  expectRejected(Cli + " --set==7 " + Argmin, "--set");
  expectRejected(Cli + " --set=min_val=zz " + Argmin, "--set");
}

TEST(CliSmoke, MissingLoopFileRejected) {
  expectRejected(Cli, "no loop file");
}

TEST(CliSmoke, MultipleLoopFilesRejected) {
  expectRejected(Cli + " " + Argmin + " " + Argmin, "multiple loop files");
}

TEST(CliSmoke, MissingFileFailsNonzeroWithoutUsageSpam) {
  CmdResult R = run(Cli + " /nonexistent/loop.fv");
  EXPECT_NE(R.Exit, 0);
  EXPECT_NE(R.Output.find("cannot open"), std::string::npos) << R.Output;
}

TEST(CliSmoke, ValidRunSucceeds) {
  CmdResult R = run(Cli + " " + Argmin + " --trip=64 --seed=3");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("argmin"), std::string::npos) << R.Output;
}

TEST(CliSmoke, ValidParallelRunSucceeds) {
  CmdResult R = run(Cli + " " + Argmin + " --trip=64 --jobs=2");
  EXPECT_EQ(R.Exit, 0) << R.Output;
}

TEST(CliSmoke, RemarksTextListsStrategies) {
  CmdResult R = run(Cli + " " + Argmin + " --remarks");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("== Remarks =="), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("vectorized"), std::string::npos) << R.Output;
}

TEST(CliSmoke, RemarksJsonIsPureMachineReadableOutput) {
  CmdResult R = run(Cli + " " + Argmin + " --remarks=json");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  // Pure JSON: an array of remark objects, no human-readable framing.
  EXPECT_EQ(R.Output.rfind("[", 0), 0u) << R.Output;
  EXPECT_EQ(R.Output.find("== "), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"kind\": \"applied\""), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"id\": \"vectorized\""), std::string::npos)
      << R.Output;
  // The traditional vectorizer declines argmin; the decline must be a
  // structured missed-remark, never silent.
  EXPECT_NE(R.Output.find("\"kind\": \"missed\""), std::string::npos)
      << R.Output;
}

TEST(CliSmoke, RemarksBadValueRejected) {
  expectRejected(Cli + " --remarks=yaml " + Argmin, "--remarks");
}

TEST(BenchSmoke, UnknownFlagRejected) {
  CmdResult R = run(Bench + " --bogus");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

TEST(BenchSmoke, MalformedJobsRejected) {
  CmdResult R = run(Bench + " --jobs=abc");
  EXPECT_EQ(R.Exit, 2) << R.Output;
}

TEST(BenchSmoke, BadSimModeRejected) {
  expectRejected(Bench + " --sim-mode=warp", "--sim-mode");
  expectRejected(Bench + " --sim-mode=", "--sim-mode");
  expectRejected(Bench + " --sim-mode=FULL", "--sim-mode");
}

TEST(BenchSmoke, MalformedVlRejected) {
  expectRejected(Bench + " --vl=abc", "--vl");
  expectRejected(Bench + " --vl=", "--vl");
  expectRejected(Bench + " --vl=384", "--vl");
  expectRejected(Bench + " --vl=64", "--vl");
  expectRejected(Bench + " --vl=4096", "--vl");
}

TEST(BenchSmoke, MalformedSamplingFlagsRejected) {
  expectRejected(Bench + " --sample-interval=0", "--sample-interval");
  expectRejected(Bench + " --sample-interval=abc", "--sample-interval");
  expectRejected(Bench + " --sample-detail=0", "--sample-detail");
  expectRejected(Bench + " --sample-warmup=-1", "--sample-warmup");
  expectRejected(Bench + " --sample-seed=bogus", "--sample-seed");
}

TEST(BenchSmoke, JobsAboveCeilingRejected) {
  expectRejected(Bench + " --jobs=1025", "0..1024");
  expectRejected(Bench + " --jobs=99999999", "0..1024");
}

TEST(BenchSmoke, ScaleAboveCeilingRejected) {
  expectRejected(Bench + " --scale=16.5", "(0, 16]");
  expectRejected(Bench + " --scale=1e9", "(0, 16]");
  expectRejected(Bench + " --scale=inf", "(0, 16]");
}

const std::string Fuzz = FLEXVEC_FUZZ_PATH;

TEST(FuzzSmoke, JobsAboveCeilingRejected) {
  expectRejected(Fuzz + " --jobs=1025", "0..1024");
  expectRejected(Fuzz + " --jobs=99999999", "0..1024");
}

TEST(FuzzSmoke, MaxTripAboveCeilingRejected) {
  expectRejected(Fuzz + " --max-trip=1000001", "1..1000000");
  expectRejected(Fuzz + " --max-trip=99999999999", "1..1000000");
}

TEST(FuzzSmoke, CountAboveCeilingRejected) {
  expectRejected(Fuzz + " --count=10000001", "1..10000000");
  expectRejected(Fuzz + " --count=99999999999", "1..10000000");
}

TEST(FuzzSmoke, UnknownFlagRejected) {
  CmdResult R = run(Fuzz + " --bogus");
  EXPECT_EQ(R.Exit, 2) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

TEST(FuzzSmoke, MalformedValuesRejected) {
  for (const char *Bad :
       {"--count=0", "--count=abc", "--seed=1x", "--envelope=tiny",
        "--storm=2", "--rounds=0", "--jobs=-1"}) {
    CmdResult R = run(Fuzz + " " + Bad);
    EXPECT_EQ(R.Exit, 2) << Bad << "\n" << R.Output;
  }
}

TEST(FuzzSmoke, PinnedSeedRunIsCleanAndWritesSummary) {
  std::string Out = "cli_smoke_fuzz.json";
  std::remove(Out.c_str());
  CmdResult R = run(Fuzz + " --count=12 --seed=5 --jobs=2 --out=" + Out);
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 failure(s)"), std::string::npos) << R.Output;
  FILE *F = std::fopen(Out.c_str(), "r");
  ASSERT_NE(F, nullptr) << "fuzz did not write " << Out;
  char Buf[128] = {0};
  size_t N = fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_GT(N, 0u);
  EXPECT_NE(std::string(Buf).find("flexvec-fuzz/v1"), std::string::npos);
  std::remove(Out.c_str());
}

// The fuzz summary is a pure function of (seed, count, envelope) under
// --deterministic: any job count produces byte-identical JSON.
TEST(FuzzSmoke, DeterministicSummaryIsJobCountInvariant) {
  std::string Out1 = "cli_smoke_fuzz_j1.json";
  std::string Out8 = "cli_smoke_fuzz_j8.json";
  std::remove(Out1.c_str());
  std::remove(Out8.c_str());
  CmdResult R1 = run(Fuzz + " --count=16 --seed=9 --jobs=1 --deterministic "
                            "--quiet --out=" +
                     Out1);
  CmdResult R8 = run(Fuzz + " --count=16 --seed=9 --jobs=8 --deterministic "
                            "--quiet --out=" +
                     Out8);
  EXPECT_EQ(R1.Exit, 0) << R1.Output;
  EXPECT_EQ(R8.Exit, 0) << R8.Output;
  auto slurp = [](const std::string &Path) {
    std::string S;
    FILE *F = std::fopen(Path.c_str(), "r");
    if (!F)
      return S;
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), F)) > 0)
      S.append(Buf, N);
    std::fclose(F);
    return S;
  };
  std::string A = slurp(Out1), B = slurp(Out8);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A, B);
  std::remove(Out1.c_str());
  std::remove(Out8.c_str());
}

TEST(BenchSmoke, TinyDeterministicRunWritesJson) {
  std::string Out = "cli_smoke_bench.json";
  std::remove(Out.c_str());
  CmdResult R = run(Bench + " --scale=0.02 --jobs=2 --deterministic --out=" +
                    Out + " --quiet");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  FILE *F = std::fopen(Out.c_str(), "r");
  ASSERT_NE(F, nullptr) << "bench did not write " << Out;
  char Buf[64] = {0};
  size_t N = fread(Buf, 1, sizeof(Buf) - 1, F);
  std::fclose(F);
  EXPECT_GT(N, 0u);
  EXPECT_NE(std::string(Buf).find("flexvec-bench-figure8"),
            std::string::npos);
  std::remove(Out.c_str());
}

// Run knobs read from the environment fail loudly: a malformed value
// stops the binary with a non-zero exit naming the variable, instead of
// silently falling back to a default.
TEST(EnvKnobs, MalformedValuesRejectedByEveryBinary) {
  const std::string Out = "cli_smoke_env.json";
  const std::string Runs[] = {
      Cli + " " + Argmin + " --trip=64 --run",
      Bench + " --scale=0.01 --jobs=1 --quiet --out=" + Out,
      Fuzz + " --count=2 --seed=1 --jobs=1 --quiet",
  };
  const std::pair<const char *, const char *> Bad[] = {
      {"FLEXVEC_VL", "abc"},
      {"FLEXVEC_VL", "384"},
      {"FLEXVEC_SIMD", "sse4"},
      {"FLEXVEC_SIMD", "Native"},
      {"FLEXVEC_RTM_RETRIES", "many"},
      {"FLEXVEC_RTM_RETRIES", "-1"},
      {"FLEXVEC_VERIFY", "yes"},
  };
  for (const auto &[Var, Value] : Bad)
    for (const std::string &Cmd : Runs) {
      const std::string Full = std::string(Var) + "=" + Value + " " + Cmd;
      CmdResult R = run(Full);
      EXPECT_NE(R.Exit, 0) << Full << "\n" << R.Output;
      EXPECT_NE(R.Output.find(Var), std::string::npos)
          << Full << ": expected '" << Var << "' in:\n" << R.Output;
    }
  std::remove(Out.c_str());
}

TEST(EnvKnobs, MalformedFaultSeedRejectedByBench) {
  // Same contract as the --fault-seed flag it defaults: exit 2 and a
  // usage hint.
  expectRejected("FLEXVEC_FAULT_SEED=12x " + Bench + " --quiet",
                 "FLEXVEC_FAULT_SEED");
  expectRejected("FLEXVEC_FAULT_SEED=-3 " + Bench + " --quiet",
                 "FLEXVEC_FAULT_SEED");
}

TEST(EnvKnobs, EmptyValueMeansUnset) {
  // CI exports FLEXVEC_VL='' on legs that do not pin a width: the run
  // must take the 512-bit default (16 i32 lanes).
  CmdResult R = run("FLEXVEC_VL= FLEXVEC_SIMD= FLEXVEC_RTM_RETRIES= "
                    "FLEXVEC_VERIFY= " +
                    Cli + " " + Argmin + " --trip=64 --run");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("VL=16;"), std::string::npos) << R.Output;
}

// FLEXVEC_RTM_RETRIES is process-wide: fault runs take their retry budget
// from it like plain runs do, and --rtm-retries still overrides it.
TEST(EnvKnobs, RtmRetriesReachFaultRuns) {
  const std::string Histogram =
      std::string(FLEXVEC_SOURCE_DIR) + "/examples/loops/histogram.fv";
  const std::string Diff =
      Cli + " " + Histogram + " --fault-diff --tx-abort-prob=0.5";
  CmdResult R = run("FLEXVEC_RTM_RETRIES=0 " + Diff);
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("rtm-retries=0,"), std::string::npos) << R.Output;

  R = run("FLEXVEC_RTM_RETRIES=0 " + Diff + " --rtm-retries=2");
  EXPECT_EQ(R.Exit, 0) << R.Output;
  EXPECT_NE(R.Output.find("rtm-retries=2,"), std::string::npos) << R.Output;
}

} // namespace
