#pragma once
/// \file image_encoder.hpp
/// Block-based image encoder (JPEG-like) — one of the paper's four embedded
/// applications (Table 1).
///
/// The source scans the image in blocks; blocks alternate between two DCT
/// lanes (running concurrently, which makes their flows contend on the way
/// to the shared downstream stages), then go through quantization and
/// entropy coding; compressed data is written to a memory core. A
/// rate-controller watches the coder's statistics and throttles the source
/// and the quantizers through tiny control packets — latency-critical
/// traffic that a volume-only (CWM) mapping cannot see.
///
/// The dataflow is a reconstruction (PAPER.md, documented deviation 4). Two
/// shipped variants match Table 1 exactly:
///  * variant 1 (7 cores): source, dctA, dctB, quant, vlc, memory, control;
///    packets = 4 * blocks + 1 (8 blocks -> 33).
///  * variant 2 (9 cores): two full DCT+quant lanes converging on a shared
///    RLE stage, then VLC, memory, control;
///    packets = 5 * blocks + 1 (10 blocks -> 51).

#include <cstdint>

#include "nocmap/graph/cdcg.hpp"

namespace nocmap::workload {

struct ImageEncoderParams {
  bool dual_lane = false;   ///< Variant 2 when true.
  std::uint32_t blocks = 8;
  std::uint64_t total_bits = 23235;
};

graph::Cdcg image_encoder_app(const ImageEncoderParams& params);

}  // namespace nocmap::workload
