// Tests of the benchmark's own arithmetic and inputs. The smoke runs of
// each workload are registered beside this binary in CMakeLists.txt.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "span.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankOnKnownSamples) {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_EQ(Percentile(ten, 0.5), 5);    // rank ceil(5.0) = 5
  EXPECT_EQ(Percentile(ten, 0.9), 9);    // rank 9
  EXPECT_EQ(Percentile(ten, 0.99), 10);  // rank ceil(9.9) = 10
  EXPECT_EQ(Percentile(ten, 1.0), 10);
  EXPECT_EQ(Percentile(ten, 0.01), 1);   // rank 1, never 0
  EXPECT_EQ(Percentile({42}, 0.5), 42);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  // A median is a sample, never an interpolation between two.
  EXPECT_EQ(Percentile({1, 2, 3, 4}, 0.5), 2);
}

TEST(PercentileTest, P99OfAThousandSamples) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(Percentile(samples, 0.99), 990);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);  // rank ceil(989.01) = 990
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.99), 0u);
}

TEST(SelfTimeTest, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTimeNs(100, 200, {}), 100);
}

TEST(SelfTimeTest, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnce) {
  // [10,40) and [30,60) cover [10,60): 50 of 100.
  EXPECT_EQ(SelfTimeNs(0, 100, {{30, 60}, {10, 40}}), 50);
  // A child inside another adds nothing.
  EXPECT_EQ(SelfTimeNs(0, 100, {{10, 90}, {20, 30}}), 20);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTimeNs(100, 200, {{50, 120}, {190, 250}}), 70);
  EXPECT_EQ(SelfTimeNs(100, 200, {{0, 300}}), 0);
  EXPECT_EQ(SelfTimeNs(100, 200, {{300, 400}}), 100);
}

TEST(SpanRecorderTest, NestingAndSelfTimes) {
  SpanRecorder spans;
  {
    ScopedSpan root(&spans, "request", 7);
    { ScopedSpan child(&spans, "sql.parse", 7); }
    { ScopedSpan child(&spans, "sql.execute", 7); }
  }
  ASSERT_EQ(spans.spans().size(), 3u);
  EXPECT_EQ(spans.spans()[0].parent, -1);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[2].parent, 0);
  for (const Span& span : spans.spans()) EXPECT_EQ(span.request, 7u);
  const std::vector<int64_t> self = spans.SelfTimes();
  const int64_t children =
      spans.spans()[1].duration_ns() + spans.spans()[2].duration_ns();
  EXPECT_EQ(self[0], spans.spans()[0].duration_ns() - children);
  EXPECT_EQ(self[1], spans.spans()[1].duration_ns());
}

TEST(SpanRecorderTest, MergeRebasesParents) {
  SpanRecorder a;
  { ScopedSpan root(&a, "request", 1); }
  SpanRecorder b;
  {
    ScopedSpan root(&b, "request", 2);
    ScopedSpan child(&b, "core.format", 2);
  }
  a.Merge(b);
  ASSERT_EQ(a.spans().size(), 3u);
  EXPECT_EQ(a.spans()[1].parent, -1);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(a.spans()[2].name, "core.format");
}

TEST(AnswerTest, FingerprintIsFnv1a) {
  EXPECT_EQ(Fingerprint(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fingerprint("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(AnswerTest, CanonicalAnswerDropsRewriteAnnotations) {
  const std::string plain = "Summary.\n  stmt 1\n";
  const std::string rewritten =
      "Summary.\n  stmt 1\n  rewrite: rule R9 fired: eliminated x\n";
  EXPECT_EQ(CanonicalAnswer("t", plain), CanonicalAnswer("t", rewritten));
  EXPECT_NE(CanonicalAnswer("t", plain), CanonicalAnswer("u", plain));
  EXPECT_NE(CanonicalAnswer("t", plain),
            CanonicalAnswer("t", plain + "  degraded: x\n"));
}

TEST(InputsTest, AppendixCPopulationIsDistinctAndFitsTheCache) {
  const std::vector<std::string> queries = AppendixCQueries();
  const std::set<std::string> distinct(queries.begin(), queries.end());
  EXPECT_EQ(distinct.size(), queries.size());
  EXPECT_GE(queries.size(), 200u);
  EXPECT_LT(queries.size(), 1024u);
}

TEST(InputsTest, GeneratorsAreDeterministicPerSeed) {
  const std::vector<std::string> ids = {"SSN0100", "CVN0500", "DD0900"};
  FleetQueryGenerator a(11), b(11), c(12);
  bool differs = false;
  for (int i = 0; i < 200; ++i) {
    const FleetQuery qa = a.Next(ids);
    EXPECT_EQ(qa.sql, b.Next(ids).sql);
    differs |= qa.sql != c.Next(ids).sql;
  }
  EXPECT_TRUE(differs);

  SkewedPicker p(50, 3, 4), q(50, 3, 4);
  for (int i = 0; i < 200; ++i) {
    const size_t pick = p.Next();
    EXPECT_LT(pick, 50u);
    EXPECT_EQ(pick, q.Next());
  }
}

TEST(InputsTest, ChurnKeepsEndpointsAndTheFleetSize) {
  auto db = iqs::GenerateFleet(10, 5);
  ASSERT_TRUE(db.ok());
  FleetChurner churner(**db, 9, 4);
  const size_t before = churner.live_ids().size();
  for (int i = 0; i < 20; ++i) {
    const WriteBatch batch = churner.Next();
    ASSERT_EQ(batch.victims.size(), 4u);
    ASSERT_EQ(batch.fresh.size(), 4u);
    ASSERT_TRUE(ApplyWriteBatch(**db, "BATTLESHIP", batch, nullptr, 0).ok());
  }
  EXPECT_EQ(churner.live_ids().size(), before);
  auto ships = (*db)->Get("BATTLESHIP");
  ASSERT_TRUE(ships.ok());
  EXPECT_EQ((*ships)->size(), before);
  // Every type still carries both of its displacement endpoints.
  for (const iqs::FleetTypeSpec& spec : iqs::Table1Specs()) {
    bool lo = false, hi = false;
    for (const iqs::Tuple& row : (*ships)->rows()) {
      if (row.at(2).AsString() != spec.type) continue;
      lo |= row.at(4).AsInt() == spec.displacement_lo;
      hi |= row.at(4).AsInt() == spec.displacement_hi;
    }
    EXPECT_TRUE(lo && hi) << spec.type;
  }
}

}  // namespace
}  // namespace perfbench
