#include "nocmap/noc/mesh.hpp"
#include "nocmap/sim/timeline.hpp"

#include <gtest/gtest.h>

#include "nocmap/sim/simulator.hpp"
#include "nocmap/workload/paper_example.hpp"

namespace nocmap::sim {
namespace {

class TimelineTest : public ::testing::Test {
 protected:
  TimelineTest()
      : cdcg_(workload::paper_example_cdcg()),
        mesh_(workload::paper_example_mesh()),
        tech_(energy::example_technology()),
        result_(simulate(cdcg_, mesh_, workload::paper_mapping_a(), tech_)) {}

  graph::Cdcg cdcg_;
  noc::Mesh mesh_;
  energy::Technology tech_;
  SimulationResult result_;
};

TEST_F(TimelineTest, AnnotationsListAllBusyResources) {
  const std::string s = render_annotations(result_, cdcg_, mesh_);
  // Every router of the 2x2 example carries traffic.
  for (int t = 1; t <= 4; ++t) {
    EXPECT_NE(s.find("router(t" + std::to_string(t) + "):"),
              std::string::npos);
  }
  // The Figure-3(a) flagship entries.
  EXPECT_NE(s.find("20(E->A):[11,32]"), std::string::npos);
  EXPECT_NE(s.find("15(E->A):[57,73]"), std::string::npos);
  EXPECT_NE(s.find("40(B->F):[11,52]"), std::string::npos);
}

TEST_F(TimelineTest, ContendedEntriesAreStarred) {
  const std::string s = render_annotations(result_, cdcg_, mesh_);
  EXPECT_NE(s.find("*15(A->F):[46,69]"), std::string::npos);
  EXPECT_NE(s.find("*15(A->F):[55,70]"), std::string::npos);
  // Uncontended entries are not starred.
  EXPECT_EQ(s.find("*40(B->F)"), std::string::npos);
}

TEST_F(TimelineTest, AnnotationsRequireTraces) {
  Simulator simulator(cdcg_, mesh_, tech_);
  const SimulationResult& bare = simulator.run(workload::paper_mapping_a());
  EXPECT_THROW(render_annotations(bare, cdcg_, mesh_), std::logic_error);
}

TEST_F(TimelineTest, TimelineHasOneLanePerPacketAndLegend) {
  const std::string s = render_timeline(result_, cdcg_, tech_);
  EXPECT_NE(s.find("15(A->B)"), std::string::npos);
  EXPECT_NE(s.find("40(B->F)"), std::string::npos);
  EXPECT_NE(s.find("legend:"), std::string::npos);
  EXPECT_NE(s.find("100 ns"), std::string::npos);
}

TEST_F(TimelineTest, ContentionShowsOnlyOnBlockedPacket) {
  const std::string s = render_timeline(result_, cdcg_, tech_, 200);
  // Exactly one lane (A->F) contains contention marks.
  std::size_t lanes_with_contention = 0;
  std::size_t pos = 0;
  for (std::string::size_type nl = s.find('\n'); nl != std::string::npos;
       pos = nl + 1, nl = s.find('\n', pos)) {
    const std::string line = s.substr(pos, nl - pos);
    if (line.find('!') != std::string::npos &&
        line.find('|') != std::string::npos) {
      ++lanes_with_contention;
      EXPECT_NE(line.find("A->F"), std::string::npos);
    }
  }
  EXPECT_EQ(lanes_with_contention, 1u);
}

TEST_F(TimelineTest, NoContentionMarksForMappingB) {
  const auto clean =
      simulate(cdcg_, mesh_, workload::paper_mapping_b(), tech_);
  const std::string ann = render_annotations(clean, cdcg_, mesh_);
  EXPECT_EQ(ann.find('*'), std::string::npos);
  const std::string tl = render_timeline(clean, cdcg_, tech_, 200);
  EXPECT_EQ(tl.substr(0, tl.find("legend:")).find('!'), std::string::npos);
  EXPECT_NE(tl.find("90 ns"), std::string::npos);
}

TEST_F(TimelineTest, EmptyResultRendersGracefully) {
  graph::Cdcg empty;
  empty.add_core("a");
  SimulationResult blank;
  EXPECT_EQ(render_timeline(blank, empty, tech_), "(empty timeline)\n");
}

}  // namespace
}  // namespace nocmap::sim
