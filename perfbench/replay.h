// Replays: the traced run times N calls into each layer's public
// function, on the workload's own inputs and sizes, so a per-operation
// count read off GET /metrics can be turned into time (README.md).
#pragma once

#include <map>
#include <string>

#include "net/event_loop.h"
#include "workloads.h"

namespace perfbench {

/// Sizes measured in the workload's untraced window.
struct ReplaySizes {
  double record_bytes = 0;       // mean secure-channel record
  double frame_bytes = 0;        // mean TCP frame, one direction
  double records_per_round = 0;  // cluster log records per password round
};

/// Median cost of one call, in microseconds, keyed by per-layer metric
/// name (crypto.pbkdf2_verify_us, securechan.seal_open_us, ...). Also
/// returns cluster.codec_records, the batch size cluster.codec_us covers.
std::map<std::string, double> run_replays(const ReplayInputs& in,
                                          const ReplaySizes& sizes,
                                          const std::string& work_dir,
                                          amnesia::net::EventLoop& loop);

}  // namespace perfbench
