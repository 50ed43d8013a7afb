// Tests for the report explanation renderer.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/traffic_gen.h"
#include "paleo/explain.h"

namespace paleo {
namespace {

TopKList PaperList() {
  TopKList l;
  l.Append("Lara Ellis", 784);
  l.Append("Jane O'Neal", 699);
  l.Append("John Smith", 654);
  l.Append("Richard Fox", 596);
  l.Append("Jack Stiles", 586);
  return l;
}

TEST(ExplainTest, RendersFoundReport) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  Paleo paleo(&*table, PaleoOptions{});
  const TopKList input = PaperList();
  auto report =
      paleo.Run(RunRequest{.input = &input, .keep_candidates = true});
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report->found());

  std::string text = ExplainReport(*report, table->schema());
  EXPECT_NE(text.find("Step 1"), std::string::npos);
  EXPECT_NE(text.find("candidate predicates:"), std::string::npos);
  EXPECT_NE(text.find("Step 2"), std::string::npos);
  EXPECT_NE(text.find("early rejects:"), std::string::npos);
  EXPECT_NE(text.find("Step 3"), std::string::npos);
  EXPECT_NE(text.find("valid quer"), std::string::npos);
  EXPECT_NE(text.find("max(minutes)"), std::string::npos);
  EXPECT_NE(text.find("Top-scored candidates"), std::string::npos);
  EXPECT_NE(text.find("Timings"), std::string::npos);
}

TEST(ExplainTest, MinerCountersReachLinesAndSpan) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  Paleo paleo(&*table, PaleoOptions{});
  const TopKList input = PaperList();
  auto report =
      paleo.Run(RunRequest{.input = &input, .collect_trace = true});
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->mining_extensions, 0);
  EXPECT_LE(report->mining_early_rejects, report->mining_extensions);

  std::string text = ExplainReport(*report, table->schema());
  auto line_value = [&](const std::string& label) {
    size_t at = text.find("  " + label);
    EXPECT_NE(at, std::string::npos) << label;
    if (at == std::string::npos) return std::string();
    size_t begin = text.find_first_not_of(' ', at + 2 + label.size());
    return text.substr(begin, text.find('\n', begin) - begin);
  };
  EXPECT_EQ(line_value("extensions tried:"),
            WithThousands(report->mining_extensions));
  EXPECT_EQ(line_value("extensions rejected early:"),
            WithThousands(report->mining_early_rejects));

  ASSERT_NE(report->trace, nullptr);
  int64_t extensions = -1, early_rejects = -1;
  for (const obs::Span& span : report->trace->spans()) {
    if (span.name != "find_predicates") continue;
    for (const obs::SpanAttr& attr : span.attrs) {
      if (attr.key == "extensions") extensions = attr.i;
      if (attr.key == "early_rejects") early_rejects = attr.i;
    }
  }
  EXPECT_EQ(extensions, report->mining_extensions);
  EXPECT_EQ(early_rejects, report->mining_early_rejects);
}

TEST(ExplainTest, RendersNotFoundReportWithoutCandidates) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  TopKList bogus;
  bogus.Append("Lara Ellis", 1.0);
  bogus.Append("Jane O'Neal", 0.5);
  bogus.Append("John Smith", 0.25);
  bogus.Append("Richard Fox", 0.125);
  bogus.Append("Jack Stiles", 0.0625);
  Paleo paleo(&*table, PaleoOptions{});
  auto report = paleo.Run(RunRequest{.input = &bogus});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->found());

  std::string text = ExplainReport(*report, table->schema());
  EXPECT_NE(text.find("no valid query found"), std::string::npos);
  // No retained candidates, so no candidate section.
  EXPECT_EQ(text.find("Top-scored candidates"), std::string::npos);
}

TEST(ExplainTest, OptionsControlSections) {
  auto table = TrafficGen::PaperExample();
  ASSERT_TRUE(table.ok());
  Paleo paleo(&*table, PaleoOptions{});
  const TopKList input = PaperList();
  auto report =
      paleo.Run(RunRequest{.input = &input, .keep_candidates = true});
  ASSERT_TRUE(report.ok());

  ExplainOptions options;
  options.show_candidates = 0;
  options.show_timings = false;
  std::string text = ExplainReport(*report, table->schema(), options);
  EXPECT_EQ(text.find("Top-scored candidates"), std::string::npos);
  EXPECT_EQ(text.find("Timings"), std::string::npos);

  options.show_candidates = 1;
  text = ExplainReport(*report, table->schema(), options);
  EXPECT_NE(text.find("[1]"), std::string::npos);
  EXPECT_NE(text.find("more)"), std::string::npos);
}

}  // namespace
}  // namespace paleo
