#pragma once
/// \file trace.h
/// Chrome-trace (chrome://tracing, Perfetto) export of a timed schedule —
/// each device stream becomes a track, each op a complete event. Useful for
/// eyeballing pipeline overlap exactly like the paper's Fig 7 timelines.

#include <string>

#include "sim/op_graph.h"
#include "sim/profile.h"
#include "sim/timing_engine.h"

namespace mpipe::sim {

/// Serialises the schedule as Chrome trace JSON.
std::string to_chrome_trace(const OpGraph& graph, const TimingResult& timing);

/// Measured-vs-simulated variant: the profiled wall-clock timeline and the
/// simulated schedule side by side — measured events on tid 0..2, the
/// simulated twins with a "sim:" name prefix on tid 3..5, one pid per
/// device. Eyeball where the model and the wall clock disagree.
std::string to_chrome_trace(const OpGraph& graph, const TimingResult& timing,
                            const MeasuredTimeline& measured);

}  // namespace mpipe::sim
