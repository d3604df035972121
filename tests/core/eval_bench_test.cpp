#include <gtest/gtest.h>

#include <string>

#include "nocmap/core/eval_bench.hpp"

namespace nocmap::core {
namespace {

/// A budget-truncated search on a big board eliminates more nodes than the
/// counter holds. The report must say the count saturated and give no
/// fraction for it, instead of printing UINT64_MAX as "100 % pruned".
TEST(EvalBenchTest, SaturatedPrunedCountHasNoFraction) {
  EvalBenchReport report;
  EvalBenchRow exact;
  exact.bnb_nodes_visited = 109;
  exact.bnb_nodes_pruned = 986313;
  EvalBenchRow saturated;
  saturated.bnb_nodes_visited = 40;
  saturated.bnb_nodes_pruned = search::kNodesPrunedSaturated;
  report.rows = {exact, saturated};

  EXPECT_FALSE(exact.bnb_pruned_saturated());
  ASSERT_TRUE(exact.bnb_pruned_frac().has_value());
  EXPECT_DOUBLE_EQ(*exact.bnb_pruned_frac(), 986313.0 / (986313.0 + 109.0));
  EXPECT_TRUE(saturated.bnb_pruned_saturated());
  EXPECT_FALSE(saturated.bnb_pruned_frac().has_value());

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"schema\": 7"), std::string::npos);
  const std::size_t second = json.find("\"bnb_nodes_visited\": 40");
  ASSERT_NE(second, std::string::npos);
  const std::string first_row = json.substr(0, second);
  const std::string second_row = json.substr(second);
  EXPECT_NE(first_row.find("\"bnb_pruned_saturated\": false"),
            std::string::npos);
  EXPECT_EQ(first_row.find("\"bnb_pruned_frac\": null"), std::string::npos);
  EXPECT_NE(second_row.find("\"bnb_pruned_saturated\": true"),
            std::string::npos);
  EXPECT_NE(second_row.find("\"bnb_pruned_frac\": null"), std::string::npos);
}

/// A row whose board was too large for the serial exhaustive reference has
/// no es_best: the report writes null, never a -1 that reads as a cost.
TEST(EvalBenchTest, EsBestIsNullWhenTheReferenceDidNotRun) {
  EvalBenchReport report;
  EvalBenchRow enumerated;
  enumerated.bnb_nodes_visited = 7;
  enumerated.es_best_j = 0.5;
  EvalBenchRow skipped;
  skipped.bnb_nodes_visited = 9;
  report.rows = {enumerated, skipped};

  const std::string json = report.to_json();
  const std::size_t second = json.find("\"bnb_nodes_visited\": 9");
  ASSERT_NE(second, std::string::npos);
  EXPECT_NE(json.substr(0, second).find("\"es_best\": 0.5}"),
            std::string::npos);
  EXPECT_NE(json.substr(second).find("\"es_best\": null}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"es_best\": -1"), std::string::npos);
}

}  // namespace
}  // namespace nocmap::core
