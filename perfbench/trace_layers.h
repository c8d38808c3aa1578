#pragma once

// Per-layer attribution of the spans recorded during a traced benchmark
// iteration. The benchmark wraps every public call into a module in its own
// span named "<module>.<call>" (category "perfbench"); the library's own
// spans ("train/*", "generate/*", "exec/*", "artifact/*") are attributed to
// the module that emits them.

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sam::perfbench {

/// Module ("layer") a span belongs to, or "other".
std::string LayerOf(const obs::TraceEvent& e);

/// Sum over `events` of each span's self time in seconds (its duration minus
/// the part covered by its direct child spans on the same thread), keyed by
/// layer. Spans on worker threads are top-level on their thread, so a
/// layer's self time is busy time summed over threads.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<obs::TraceEvent>& events);

/// Total duration in seconds of the spans whose name starts with any of
/// `prefixes`.
double SpanSeconds(const std::vector<obs::TraceEvent>& events,
                   const std::vector<std::string>& prefixes);

/// Durations in milliseconds of the spans named exactly `name`.
std::vector<double> SpanDurationsMs(const std::vector<obs::TraceEvent>& events,
                                    const std::string& name);

}  // namespace sam::perfbench
