// Tests for the BenchReport emitter (src/bench/report.h): JSON document
// shape, parameter ordering, check aggregation, and the three renderers;
// plus the paired-arm statistics the realtime ratio gates use
// (src/bench/paired.h).
#include "bench/report.h"

#include <fstream>
#include <sstream>
#include <string>

#include "bench/json.h"
#include "bench/paired.h"
#include "common/table.h"
#include "gtest/gtest.h"
#include "support/test_support.h"

namespace ros2::bench {
namespace {

BenchReport MakeSampleReport() {
  BenchReport report("bench_sample", /*quick=*/true);
  report.BeginExperiment("exp_one", "first experiment");
  report.AddNote("a note");
  report.AddCheck("functional pass", true);
  AsciiTable table({"col", "value"});
  table.AddRow({"row", "42"});
  report.AddTable("sample table", table);
  report.AddMetric("throughput", "bytes_per_sec", 1.5e9,
                   {{"zeta", "z"}, {"alpha", "a"}});
  report.BeginExperiment("exp_two", "second experiment");
  report.AddMetric("latency", "seconds", 0.004);
  return report;
}

TEST(BenchReportTest, JsonDocumentShape) {
  const Json doc = MakeSampleReport().ToJson();
  EXPECT_EQ(doc.Find("schema")->AsString(), "ros2-bench-report-v1");
  EXPECT_EQ(doc.Find("binary")->AsString(), "bench_sample");
  EXPECT_TRUE(doc.Find("quick")->AsBool());
  const Json* experiments = doc.Find("experiments");
  ASSERT_TRUE(experiments != nullptr);
  ASSERT_EQ(experiments->size(), 2u);

  const Json& first = experiments->elements()[0];
  EXPECT_EQ(first.Find("name")->AsString(), "exp_one");
  EXPECT_EQ(first.Find("description")->AsString(), "first experiment");
  ASSERT_EQ(first.Find("notes")->size(), 1u);
  EXPECT_EQ(first.Find("notes")->elements()[0].AsString(), "a note");
  ASSERT_EQ(first.Find("checks")->size(), 1u);
  EXPECT_TRUE(first.Find("checks")->elements()[0].Find("pass")->AsBool());
  ASSERT_EQ(first.Find("tables")->size(), 1u);
  const Json& table = first.Find("tables")->elements()[0];
  EXPECT_EQ(table.Find("title")->AsString(), "sample table");
  EXPECT_NE(table.Find("text")->AsString().find("| col | value |"),
            std::string::npos);

  ASSERT_EQ(first.Find("metrics")->size(), 1u);
  const Json& metric = first.Find("metrics")->elements()[0];
  EXPECT_EQ(metric.Find("metric")->AsString(), "throughput");
  EXPECT_EQ(metric.Find("unit")->AsString(), "bytes_per_sec");
  EXPECT_EQ(metric.Find("value")->AsNumber(), 1.5e9);
  // Params keep the caller's order, not alphabetical.
  const Json* params = metric.Find("params");
  ASSERT_EQ(params->members().size(), 2u);
  EXPECT_EQ(params->members()[0].first, "zeta");
  EXPECT_EQ(params->members()[1].first, "alpha");
}

TEST(BenchReportTest, DirectionAndRealtimeEmitOnlyWhenSet) {
  // Default: neither key appears, keeping pre-hint reports byte-identical.
  const Json plain = MakeSampleReport().ToJson();
  EXPECT_TRUE(plain.Find("realtime") == nullptr);
  const Json& plain_metric =
      plain.Find("experiments")->elements()[0].Find("metrics")->elements()[0];
  EXPECT_TRUE(plain_metric.Find("direction") == nullptr);

  BenchReport report("bench_rt", /*quick=*/false);
  report.MarkRealtime();
  report.BeginExperiment("exp", "wall-clock section");
  report.AddMetric("rate", "ops_per_wall_sec", 1e6, {},
                   MetricDirection::kHigherIsBetter);
  report.AddMetric("stall", "seconds", 0.5, {},
                   MetricDirection::kLowerIsBetter);
  const Json doc = report.ToJson();
  ASSERT_TRUE(doc.Find("realtime") != nullptr);
  EXPECT_TRUE(doc.Find("realtime")->AsBool());
  const Json* metrics = doc.Find("experiments")->elements()[0].Find("metrics");
  EXPECT_EQ(metrics->elements()[0].Find("direction")->AsString(), "higher");
  EXPECT_EQ(metrics->elements()[1].Find("direction")->AsString(), "lower");
}

TEST(BenchReportTest, MetricsBeforeAnyExperimentLandInDefaultSection) {
  BenchReport report("bench_default", /*quick=*/false);
  report.AddMetric("m", "unit", 1.0);
  const Json doc = report.ToJson();
  ASSERT_EQ(doc.Find("experiments")->size(), 1u);
  EXPECT_EQ(doc.Find("experiments")->elements()[0].Find("name")->AsString(),
            "bench_default");
}

TEST(BenchReportTest, AllChecksPassedAggregatesAcrossExperiments) {
  BenchReport report("bench_checks", false);
  EXPECT_TRUE(report.AllChecksPassed());  // vacuously
  report.BeginExperiment("a", "");
  report.AddCheck("ok", true);
  EXPECT_TRUE(report.AllChecksPassed());
  report.BeginExperiment("b", "");
  report.AddCheck("broken", false);
  EXPECT_FALSE(report.AllChecksPassed());
}

TEST(BenchReportTest, ConsoleRenderContainsTablesAndChecks) {
  const std::string console = MakeSampleReport().RenderConsole();
  EXPECT_NE(console.find("== bench_sample (quick mode) =="),
            std::string::npos);
  EXPECT_NE(console.find("-- exp_one: first experiment --"),
            std::string::npos);
  EXPECT_NE(console.find("check: functional pass: PASS"), std::string::npos);
  // Numeric cells right-align inside their column.
  EXPECT_NE(console.find("| row |    42 |"), std::string::npos);
}

TEST(BenchReportTest, MarkdownRenderEmbedsTableVerbatim) {
  AsciiTable table({"h1", "h2"});
  table.AddRow({"cell", "123"});
  BenchReport report("bench_md", false);
  report.BeginExperiment("exp", "desc");
  report.AddTable("title", table);
  const std::string markdown = report.RenderMarkdown();
  EXPECT_NE(markdown.find("## bench_md"), std::string::npos);
  EXPECT_NE(markdown.find("### exp"), std::string::npos);
  EXPECT_NE(markdown.find(table.Render()), std::string::npos);
}

TEST(BenchReportTest, WriteJsonFileRoundTripsThroughParser) {
  test::TempDir dir;
  ASSERT_TRUE(dir.ok());
  const std::string path = dir.File("report.json");
  ASSERT_TRUE(MakeSampleReport().WriteJsonFile(path).ok());
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  auto doc = Json::Parse(buffer.str());
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("schema")->AsString(), "ros2-bench-report-v1");
  EXPECT_EQ(doc->Find("experiments")->size(), 2u);
}

TEST(BenchReportTest, WriteJsonFileToBadPathFails) {
  BenchReport report("bench_bad", false);
  EXPECT_FALSE(
      report.WriteJsonFile("/nonexistent-dir-zzz/report.json").ok());
}

TEST(BenchPairsTest, StatisticsKeepEachPairTogether) {
  Pairs pairs;
  EXPECT_EQ(pairs.MedianRatio(), 0.0);
  EXPECT_EQ(pairs.BestPair(), 0u);  // == size(): no pair yet
  EXPECT_EQ(pairs.Ratio(pairs.BestPair()), 0.0);
  pairs.Add(2.0, 1.0);  // ratio 2
  pairs.Add(9.0, 3.0);  // ratio 3
  pairs.Add(1.0, 0.0);  // failed B arm: ratio 0
  pairs.Add(4.0, 4.0);  // ratio 1
  EXPECT_EQ(pairs.Ratio(2), 0.0);
  EXPECT_EQ(pairs.MedianRatio(), 2.0);  // upper median of {0, 1, 2, 3}
  EXPECT_EQ(pairs.BestPair(), 1u);
  EXPECT_EQ(pairs.MedianA(), 4.0);      // upper median of {1, 2, 4, 9}
  EXPECT_EQ(pairs.MedianB(), 3.0);      // upper median of {0, 1, 3, 4}
  EXPECT_EQ(pairs.SumA(), 16.0);
  EXPECT_EQ(pairs.SumB(), 8.0);
  EXPECT_EQ(pairs.a(4), 0.0);  // past the last pair
}

}  // namespace
}  // namespace ros2::bench
