#include "nocmap/workload/suite.hpp"

#include <stdexcept>

#include "nocmap/util/rng.hpp"
#include "nocmap/workload/fft.hpp"
#include "nocmap/workload/image_encoder.hpp"
#include "nocmap/workload/object_recognition.hpp"
#include "nocmap/workload/random_cdcg.hpp"
#include "nocmap/workload/romberg.hpp"

namespace nocmap::workload {

namespace {

SuiteEntry random_entry(std::string name, std::uint32_t w, std::uint32_t h,
                        std::uint32_t cores, std::uint32_t packets,
                        std::uint64_t bits, std::uint64_t seed,
                        std::uint32_t paper_cores = 0) {
  RandomCdcgParams params;
  params.num_cores = cores;
  params.num_packets = packets;
  params.total_bits = bits;
  // More cores -> more concurrent chains; keeps the generated graphs busy
  // enough that mapping quality matters on the bigger meshes.
  params.parallelism = std::max(3.0, cores / 6.0);
  util::Rng rng(seed);
  return SuiteEntry{std::move(name), w,    h, generate_random_cdcg(params, rng),
                    paper_cores ? paper_cores : cores, packets, bits};
}

}  // namespace

std::vector<SuiteEntry> table1_suite() {
  std::vector<SuiteEntry> suite;
  suite.reserve(18);

  // ---- 3 x 2 ---------------------------------------------------------------
  {
    RombergParams p;  // 5 cores, 4+32+4+3 = 43 packets.
    p.workers = 4;
    p.rounds = 4;
    p.extrapolation_packets = 3;
    p.total_bits = 78817;
    suite.push_back({"romberg-v1", 3, 2, romberg_app(p), 5, 43, 78817});
  }
  suite.push_back(random_entry("random-1", 3, 2, 6, 17, 174, 0xA001));
  {
    ObjectRecognitionParams p;  // 6 cores, 7*6+1 = 43 packets.
    p.split_pipeline = false;
    p.frames = 7;
    p.total_bits = 49003;
    suite.push_back(
        {"objrec-v1", 3, 2, object_recognition_app(p), 6, 43, 49003});
  }

  // ---- 2 x 4 ---------------------------------------------------------------
  {
    RombergParams p;  // 5 cores, 4+8+4+0 = 16 packets.
    p.workers = 4;
    p.rounds = 1;
    p.extrapolation_packets = 0;
    p.total_bits = 1600;
    suite.push_back({"romberg-v2", 2, 4, romberg_app(p), 5, 16, 1600});
  }
  {
    ImageEncoderParams p;  // 7 cores, 8*4+1 = 33 packets.
    p.dual_lane = false;
    p.blocks = 8;
    p.total_bits = 23235;
    suite.push_back({"imgenc-v1", 2, 4, image_encoder_app(p), 7, 33, 23235});
  }
  suite.push_back(random_entry("random-2", 2, 4, 8, 18, 5930, 0xA002));

  // ---- 3 x 3 ---------------------------------------------------------------
  suite.push_back(random_entry("random-3", 3, 3, 7, 16, 1600, 0xA003));
  {
    FftParams p;  // 9 cores, 2+12+4 = 18 packets.
    p.split_io = false;
    p.output_packets = 4;
    p.total_bits = 1860;
    suite.push_back({"fft-v1", 3, 3, fft8_app(p), 9, 18, 1860});
  }
  {
    ObjectRecognitionParams p;  // 9 cores, 8*4 = 32 packets.
    p.split_pipeline = true;
    p.frames = 4;
    p.total_bits = 43120;
    suite.push_back(
        {"objrec-v2", 3, 3, object_recognition_app(p), 9, 32, 43120});
  }

  // ---- 2 x 5 ---------------------------------------------------------------
  suite.push_back(random_entry("random-4", 2, 5, 8, 24, 2215, 0xA004));
  {
    ImageEncoderParams p;  // 9 cores, 10*5+1 = 51 packets.
    p.dual_lane = true;
    p.blocks = 10;
    p.total_bits = 23244;
    suite.push_back({"imgenc-v2", 2, 5, image_encoder_app(p), 9, 51, 23244});
  }
  suite.push_back(random_entry("random-5", 2, 5, 10, 22, 322221, 0xA005));

  // ---- 3 x 4 ---------------------------------------------------------------
  {
    FftParams p;  // 10 cores, 2+12+1 = 15 packets.
    p.split_io = true;
    p.output_packets = 1;
    p.total_bits = 3100;
    suite.push_back({"fft-v2", 3, 4, fft8_app(p), 10, 15, 3100});
  }
  suite.push_back(random_entry("random-6", 3, 4, 12, 25, 2578920, 0xA006));
  // Paper lists 14 cores here — more cores than the 12 tiles of a 3x4 mesh.
  // We build 12 (mesh capacity); the paper value is kept for the report.
  suite.push_back(
      random_entry("random-7", 3, 4, 12, 88, 115778, 0xA007, /*paper=*/14));

  // ---- Large NoCs (SA only in the paper) ------------------------------------
  suite.push_back(random_entry("random-big-1", 8, 8, 62, 344, 9799200, 0xB001));
  suite.push_back(
      random_entry("random-big-2", 10, 10, 93, 415, 562565990, 0xB002));
  suite.push_back(
      random_entry("random-big-3", 12, 10, 99, 446, 680006120, 0xB003));

  return suite;
}

std::vector<SuiteEntry> table1_suite_for(const std::string& noc_size_label) {
  std::vector<SuiteEntry> out;
  for (SuiteEntry& e : table1_suite()) {
    if (e.noc_size_label() == noc_size_label) out.push_back(std::move(e));
  }
  if (out.empty()) {
    throw std::invalid_argument("table1_suite_for: unknown NoC size label '" +
                                noc_size_label + "'");
  }
  return out;
}

std::vector<std::string> table1_noc_sizes() {
  return {"3 x 2", "2 x 4", "3 x 3", "2 x 5",
          "3 x 4", "8 x 8", "10 x 10", "12 x 10"};
}

bool small_enough_for_exhaustive(std::uint32_t width, std::uint32_t height) {
  return width * height <= 12;
}

const std::array<PaperTable2Row, 8> kPaperTable2{{
    {"3 x 2", 36, 0.50, 15},
    {"2 x 4", 27, 0.43, 13},
    {"3 x 3", 39, 0.55, 17},
    {"2 x 5", 42, 0.72, 23},
    {"3 x 4", 42, 0.71, 22},
    {"8 x 8", 38, 0.60, 19},
    {"10 x 10", 46, 0.80, 25},
    {"12 x 10", 48, 0.86, 26},
}};

}  // namespace nocmap::workload
