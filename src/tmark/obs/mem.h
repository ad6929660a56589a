#ifndef TMARK_OBS_MEM_H_
#define TMARK_OBS_MEM_H_

// Process memory introspection for the observability layer.
//
// Peak resident set size is the quantity the scaling study tracks
// (docs/PERFORMANCE.md "Scaling"): it captures the high-water mark of
// operator construction plus fit, which is what a capacity planner needs.
// Linux exposes it as the VmHWM line of /proc/self/status; platforms (or
// sandboxes) without that file get a typed Status instead of a crash or a
// silent zero.
//
// Note VmHWM is monotone within a process — it never goes back down — so
// comparative experiments (compact vs. wide indices) must use the analytic
// structure-byte accounting (la::SparseMatrix::StructureBytes,
// tensor::TransitionTensors::StorageBytes) and record the RSS only as
// corroborating context.

#include <cstdint>

#include "tmark/common/status.h"

namespace tmark::obs {

/// Peak resident set size of the calling process in bytes (VmHWM of
/// /proc/self/status). kNotFound when the proc file cannot be opened (not
/// Linux, restricted sandbox), kParseError when it holds no parseable
/// VmHWM line.
Result<std::uint64_t> ReadPeakRssBytes();

/// Sets the `mem.peak_rss_bytes` gauge to the current peak RSS. No-op when
/// metrics are disabled or the reading is unavailable (the gauge is simply
/// absent from snapshots — consumers treat it as optional).
void RecordPeakRss();

}  // namespace tmark::obs

#endif  // TMARK_OBS_MEM_H_
