// Span statistics from the obs trace buffer: inclusive and self time per
// span name, and the service's queue wait per request.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanTotals {
  std::size_t count = 0;
  /// Sum of span durations.
  double inclusive_s = 0.0;
  /// Sum of span durations minus the time their direct child spans (same
  /// thread, nested interval) cover.
  double self_s = 0.0;
};

struct TraceStats {
  std::map<std::string, SpanTotals> spans;
  /// Per executed service job: job start minus the end of the submit
  /// span of the same trace id that precedes it, in seconds.
  std::vector<double> queue_wait_s;
  std::size_t events = 0;
  std::size_t dropped = 0;

  const SpanTotals& span(const std::string& name) const;
};

/// Snapshot and analyze everything buffered by obs tracing so far.
TraceStats collect_trace_stats();

}  // namespace perfbench
