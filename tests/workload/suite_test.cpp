#include "nocmap/workload/suite.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace nocmap::workload {
namespace {

TEST(SuiteTest, HasEighteenApplications) {
  EXPECT_EQ(table1_suite().size(), 18u);
}

TEST(SuiteTest, EightNocSizesInPaperOrder) {
  const auto sizes = table1_noc_sizes();
  ASSERT_EQ(sizes.size(), 8u);
  EXPECT_EQ(sizes.front(), "3 x 2");
  EXPECT_EQ(sizes.back(), "12 x 10");
}

TEST(SuiteTest, RowStatisticsMatchTable1) {
  // (NoC label) -> list of (cores, packets, bits) from the paper's Table 1.
  using Row = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;
  const std::map<std::string, std::vector<Row>> expected{
      {"3 x 2", {{5, 43, 78817}, {6, 17, 174}, {6, 43, 49003}}},
      {"2 x 4", {{5, 16, 1600}, {7, 33, 23235}, {8, 18, 5930}}},
      {"3 x 3", {{7, 16, 1600}, {9, 18, 1860}, {9, 32, 43120}}},
      {"2 x 5", {{8, 24, 2215}, {9, 51, 23244}, {10, 22, 322221}}},
      {"3 x 4", {{10, 15, 3100}, {12, 25, 2578920}, {14, 88, 115778}}},
      {"8 x 8", {{62, 344, 9799200}}},
      {"10 x 10", {{93, 415, 562565990}}},
      {"12 x 10", {{99, 446, 680006120}}},
  };

  std::map<std::string, std::vector<Row>> actual;
  for (const SuiteEntry& e : table1_suite()) {
    actual[e.noc_size_label()].push_back(
        Row{e.paper_cores, e.paper_packets, e.paper_bits});
  }
  EXPECT_EQ(actual, expected);
}

TEST(SuiteTest, BuiltGraphsMatchTheirRowExceptTheDocumentedDeviation) {
  for (const SuiteEntry& e : table1_suite()) {
    EXPECT_EQ(e.cdcg.num_packets(), e.paper_packets) << e.name;
    EXPECT_EQ(e.cdcg.total_bits(), e.paper_bits) << e.name;
    if (e.name == "random-7") {
      // Paper says 14 cores on a 12-tile mesh; we build 12 (PAPER.md,
      // documented deviation 3).
      EXPECT_EQ(e.cdcg.num_cores(), 12u);
      EXPECT_EQ(e.paper_cores, 14u);
    } else {
      EXPECT_EQ(e.cdcg.num_cores(), e.paper_cores) << e.name;
    }
  }
}

TEST(SuiteTest, PaperTable2RowsAndTheirPrintedAverage) {
  // (NoC label, ETR, ECS 0.35u, ECS 0.07u) from the paper's Table 2, in %.
  using Row = std::tuple<std::string, double, double, double>;
  const std::vector<Row> expected{
      {"3 x 2", 36, 0.50, 15},   {"2 x 4", 27, 0.43, 13},
      {"3 x 3", 39, 0.55, 17},   {"2 x 5", 42, 0.72, 23},
      {"3 x 4", 42, 0.71, 22},   {"8 x 8", 38, 0.60, 19},
      {"10 x 10", 46, 0.80, 25}, {"12 x 10", 48, 0.86, 26},
  };
  std::vector<Row> actual;
  double etr = 0.0, ecs035 = 0.0, ecs007 = 0.0;
  for (const PaperTable2Row& row : kPaperTable2) {
    actual.emplace_back(std::string(row.noc_size), row.etr_pct,
                        row.ecs_035u_pct, row.ecs_007u_pct);
    etr += row.etr_pct / kPaperTable2.size();
    ecs035 += row.ecs_035u_pct / kPaperTable2.size();
    ecs007 += row.ecs_007u_pct / kPaperTable2.size();
  }
  EXPECT_EQ(actual, expected);
  std::vector<std::string> sizes;
  for (const Row& row : actual) sizes.push_back(std::get<0>(row));
  EXPECT_EQ(sizes, table1_noc_sizes());
  // The paper prints its Average row as 40 %, 0.65 % and 20 %: the means
  // (39.75, 0.646, 20.0) rounded to the precision of each column.
  EXPECT_EQ(std::round(etr), 40.0);
  EXPECT_EQ(std::round(ecs035 * 100.0), 65.0);
  EXPECT_EQ(std::round(ecs007), 20.0);
}

TEST(SuiteTest, EveryApplicationFitsItsNoC) {
  for (const SuiteEntry& e : table1_suite()) {
    EXPECT_LE(e.cdcg.num_cores(),
              static_cast<std::size_t>(e.noc_width) * e.noc_height)
        << e.name;
    EXPECT_NO_THROW(e.cdcg.validate()) << e.name;
  }
}

TEST(SuiteTest, EightEmbeddedAndTenRandomApplications) {
  int embedded = 0, random = 0;
  for (const SuiteEntry& e : table1_suite()) {
    if (e.name.rfind("random", 0) == 0) {
      ++random;
    } else {
      ++embedded;
    }
  }
  EXPECT_EQ(embedded, 8);
  EXPECT_EQ(random, 10);
}

TEST(SuiteTest, NamesAreUnique) {
  std::set<std::string> names;
  for (const SuiteEntry& e : table1_suite()) {
    EXPECT_TRUE(names.insert(e.name).second) << "duplicate " << e.name;
  }
}

TEST(SuiteTest, SuiteIsDeterministic) {
  const auto a = table1_suite();
  const auto b = table1_suite();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].cdcg.num_packets(), b[i].cdcg.num_packets());
    for (graph::PacketId p = 0; p < a[i].cdcg.num_packets(); ++p) {
      ASSERT_EQ(a[i].cdcg.packet(p), b[i].cdcg.packet(p)) << a[i].name;
    }
  }
}

TEST(SuiteTest, FilterBySizeLabel) {
  const auto small = table1_suite_for("3 x 2");
  EXPECT_EQ(small.size(), 3u);
  for (const auto& e : small) EXPECT_EQ(e.noc_size_label(), "3 x 2");
  const auto big = table1_suite_for("12 x 10");
  EXPECT_EQ(big.size(), 1u);
  EXPECT_THROW(table1_suite_for("7 x 7"), std::invalid_argument);
}

TEST(SuiteTest, ExhaustiveFeasibilityMatchesThePaperBoundary) {
  EXPECT_TRUE(small_enough_for_exhaustive(3, 2));
  EXPECT_TRUE(small_enough_for_exhaustive(2, 5));
  EXPECT_TRUE(small_enough_for_exhaustive(3, 4));
  EXPECT_FALSE(small_enough_for_exhaustive(8, 8));
  EXPECT_FALSE(small_enough_for_exhaustive(10, 10));
}

}  // namespace
}  // namespace nocmap::workload
