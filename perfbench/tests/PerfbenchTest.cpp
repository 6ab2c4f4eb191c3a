//===- perfbench/tests/PerfbenchTest.cpp - The benchmark's own code -------===//

#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include <gtest/gtest.h>

#include <thread>

using namespace perfbench;

namespace {

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I) // Descending: percentile must sort.
    V.push_back(static_cast<double>(I));
  return V;
}

Span span(uint32_t Id, uint32_t Parent, int64_t Start, int64_t End,
          const char *Name = "s", uint64_t Calls = 0) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.StartNs = Start;
  S.EndNs = End;
  S.Name = Name;
  S.Calls = Calls;
  return S;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentileRank(150, 50), 75u);
  EXPECT_EQ(percentileRank(150, 90), 135u);
  EXPECT_EQ(percentileRank(10, 100), 10u);
  EXPECT_EQ(percentileRank(1, 1), 1u);
  EXPECT_DOUBLE_EQ(percentile(oneTo(150), 50), 75);
  EXPECT_DOUBLE_EQ(percentile(oneTo(150), 90), 135);
  EXPECT_DOUBLE_EQ(percentile(oneTo(1000), 99), 990);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(Percentile, AtLeastTenSamplesBeyond) {
  // 150 cells: p90 leaves 15 beyond it; p99 leaves 1 and is not reported.
  EXPECT_EQ(samplesBeyond(150, 90), 15u);
  EXPECT_TRUE(percentileReportable(150, 90));
  EXPECT_FALSE(percentileReportable(150, 99));
  // The boundary: 100 samples leave exactly 10 beyond p90, 99 leave 9.
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_TRUE(percentileReportable(100, 90));
  EXPECT_EQ(samplesBeyond(99, 90), 9u);
  EXPECT_FALSE(percentileReportable(99, 90));
  EXPECT_TRUE(percentileReportable(1000, 99));
  EXPECT_FALSE(percentileReportable(0, 50));
}

TEST(Percentile, Median) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(SelfTime, NestedSpans) {
  // root [0,100]
  //   a [10,40]        b [30,60] (overlaps a on another lane)
  //     c [20,30]        folded f: 5 ns of calls
  //   d [90,120] (runs past the root's end)
  std::vector<Span> S = {
      span(1, 0, 0, 100),  span(2, 1, 10, 40),
      span(3, 2, 20, 30),  span(4, 1, 30, 60),
      span(5, 4, 30, 35, "f", 7), span(6, 1, 90, 120),
  };
  std::vector<int64_t> Self = selfTimesNs(S);
  // Root: children cover [10,60] and [90,100] -> 60 of 100.
  EXPECT_EQ(Self[0], 40);
  EXPECT_EQ(Self[1], 20); // a minus c
  EXPECT_EQ(Self[2], 10); // leaf
  EXPECT_EQ(Self[3], 25); // b minus the folded calls
  EXPECT_EQ(Self[4], 5);
  EXPECT_EQ(Self[5], 30);
}

TEST(SelfTime, ByNameAndTag) {
  std::vector<Span> S = {span(1, 0, 0, 3000000, "emu.traced"),
                         span(2, 0, 0, 1000000, "emu.traced"),
                         span(3, 1, 0, 2000000, "sim.onbatch", 4)};
  S[0].Tag = "flexvec";
  std::vector<int64_t> Self = selfTimesNs(S);
  auto By = selfMsByName(S, Self, false);
  EXPECT_DOUBLE_EQ(By["emu.traced"], 2.0);
  EXPECT_DOUBLE_EQ(By["sim.onbatch"], 2.0);
  auto ByTag = selfMsByName(S, Self, true);
  EXPECT_DOUBLE_EQ(ByTag["emu.traced.flexvec"], 1.0);
  EXPECT_DOUBLE_EQ(ByTag["emu.traced"], 1.0);
}

TEST(Tracer, RecordsParentsAndLanes) {
  Tracer T;
  uint32_t RootId = 0;
  {
    Tracer::Scope Root(T, "root", 0, 0);
    RootId = Root.id();
    std::thread Other([&] { Tracer::Scope S(T, "other", 1, RootId); });
    Other.join();
    Tracer::Scope Child(T, "child", 2, RootId, "tag");
    T.addFolded("folded", "", 2, Child.id(), Child.startNs(), 10, 3);
    T.addFolded("empty", "", 2, Child.id(), Child.startNs(), 0, 0);
  }
  std::vector<Span> S = T.spans();
  ASSERT_EQ(S.size(), 4u); // A folded span without calls is dropped.
  std::map<std::string, Span> ByName;
  for (const Span &Sp : S)
    ByName[Sp.Name] = Sp;
  EXPECT_EQ(ByName["other"].Parent, RootId);
  EXPECT_EQ(ByName["child"].Parent, RootId);
  EXPECT_STREQ(ByName["child"].Tag, "tag");
  EXPECT_EQ(ByName["folded"].Parent, ByName["child"].Id);
  EXPECT_EQ(ByName["folded"].durationNs(), 10);
  EXPECT_NE(ByName["other"].Lane, ByName["root"].Lane);
  EXPECT_EQ(ByName["child"].Lane, ByName["root"].Lane);
  EXPECT_LE(ByName["root"].StartNs, ByName["child"].StartNs);
  EXPECT_GE(ByName["root"].EndNs, ByName["child"].EndNs);
}

TEST(MetricName, Rule) {
  for (const char *Ok : {"wall_s", "item_ms_p90", "emu.traced_self_ms.flexvec-rtm",
                         "sim.sample.detailed_share", "0x", "A-b_c.9"})
    EXPECT_TRUE(validMetricName(Ok)) << Ok;
  for (const char *Bad : {"", ".wall", "_x", "-x", "wall s", "ms/op", "a:b",
                          "naïve"})
    EXPECT_FALSE(validMetricName(Bad)) << Bad;
  EXPECT_TRUE(validMetricName(std::string(64, 'a')));
  EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(Workloads, Names) {
  for (const char *N : {"figure8_full", "figure8_sampled_j2", "fuzz_storm"}) {
    ASSERT_NE(findWorkload(N), nullptr) << N;
    EXPECT_TRUE(validMetricName(N));
  }
  EXPECT_EQ(findWorkload("figure8"), nullptr);
  EXPECT_EQ(findWorkload("figure8_sampled_j2")->Jobs, 2u);
}

} // namespace
