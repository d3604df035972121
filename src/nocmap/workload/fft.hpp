#pragma once
/// \file fft.hpp
/// 8-point Fast Fourier Transform — one of the paper's four embedded
/// applications (Table 1).
///
/// Eight butterfly cores each own one sample; log2(8) = 3 butterfly stages
/// follow, and in each stage the paired cores exchange one packet (the
/// partner with the higher index sends its sample, the lower one computes
/// the butterfly — the standard distributed radix-2 dataflow with one
/// message per pair per stage). An input I/O core feeds the two halves of
/// the sample vector at the start; one or two output packets collect the
/// spectrum at the end.
///
/// The dataflow is a reconstruction (PAPER.md, documented deviation 4). Two
/// shipped variants match Table 1 exactly:
///  * variant 1: shared I/O core     -> 9 cores, 2+12+4 = 18 packets;
///  * variant 2: split in/out cores  -> 10 cores, 2+12+1 = 15 packets.

#include <cstdint>

#include "nocmap/graph/cdcg.hpp"

namespace nocmap::workload {

struct FftParams {
  bool split_io = false;        ///< Separate input and output I/O cores.
  std::uint32_t output_packets = 4;  ///< Result-gather packets at the end.
  std::uint64_t total_bits = 1860;
};

graph::Cdcg fft8_app(const FftParams& params);

}  // namespace nocmap::workload
