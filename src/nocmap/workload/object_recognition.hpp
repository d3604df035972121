#pragma once
/// \file object_recognition.hpp
/// Object-recognition image pipeline — one of the paper's four embedded
/// applications (Table 1).
///
/// Like real embedded vision systems, the pipeline is memory-centric: raw
/// frames go through a frame-buffer core, results and models are written
/// back to it, and a controller closes a low-volume rate-control loop to the
/// camera. Consecutive frames through one stage are serialized; dataflow
/// within a frame is chained. The control edges carry almost no volume yet
/// sit on the critical path — the structural reason a timing-aware (CDCM)
/// mapping beats a volume-only (CWM) one.
///
/// The dataflow is a reconstruction (PAPER.md, documented deviation 4). Two
/// shipped variants match Table 1 exactly:
///  * variant 1 (6 cores): camera / memory / segment / feature / classify /
///    control; detection frames (through the frame buffer) alternate with
///    tracking frames (camera feeds segmentation directly, the classifier
///    updates the model in memory); packets = 6 * frames + 1
///    (7 frames -> 43).
///  * variant 2 (9 cores): split pipeline — the frame buffer feeds two
///    parallel segment+feature branches that reconverge at the classifier;
///    the eighth per-frame packet rotates between a model store/fetch
///    (database), the display and a feature writeback;
///    packets = 8 * frames (4 frames -> 32).

#include <cstdint>

#include "nocmap/graph/cdcg.hpp"

namespace nocmap::workload {

struct ObjectRecognitionParams {
  bool split_pipeline = false;  ///< Variant 2 when true.
  std::uint32_t frames = 7;     ///< Frames processed (variant 1 default
                                ///< matches the 43-packet Table-1 row).
  std::uint64_t total_bits = 49003;
};

graph::Cdcg object_recognition_app(const ObjectRecognitionParams& params);

}  // namespace nocmap::workload
