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
  EXPECT_NE(json.find("\"schema\": 6"), std::string::npos);
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

}  // namespace
}  // namespace nocmap::core
