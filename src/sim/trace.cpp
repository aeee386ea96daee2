#include "sim/trace.h"

#include <sstream>

#include "common/check.h"
#include "common/units.h"

namespace mpipe::sim {

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

/// One complete event per participating device. pid = device, tid = stream
/// kind (+ offset for the simulated tracks of the measured-vs-sim dump);
/// Chrome renders one row per tid. Shared by every emitter below so the
/// event format can only change in one place.
void append_events(std::ostringstream& os, bool& first, const Op& op,
                   double start, double end, const char* name_prefix,
                   int tid_offset) {
  for (int device : op.devices) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << name_prefix << json_escape(op.label)
       << "\",\"ph\":\"X\",\"ts\":" << to_us(start) << ",\"dur\":"
       << to_us(end - start) << ",\"pid\":" << device
       << ",\"tid\":" << static_cast<int>(op.stream) + tid_offset << "}";
  }
}
}  // namespace

std::string to_chrome_trace(const OpGraph& graph,
                            const TimingResult& timing) {
  MPIPE_EXPECTS(static_cast<int>(timing.op_times.size()) == graph.size(),
                "timing does not match graph");
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Op& op : graph.ops()) {
    const OpTiming& t = timing.op_times[static_cast<std::size_t>(op.id)];
    if (!t.started()) continue;
    append_events(os, first, op, t.start, t.end, "", 0);
  }
  os << "]}";
  return os.str();
}

std::string to_chrome_trace(const OpGraph& graph, const TimingResult& timing,
                            const MeasuredTimeline& measured) {
  MPIPE_EXPECTS(static_cast<int>(timing.op_times.size()) == graph.size(),
                "timing does not match graph");
  MPIPE_EXPECTS(static_cast<int>(measured.ops.size()) == graph.size(),
                "measured timeline does not match graph");
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Op& op : graph.ops()) {
    const MeasuredOp& m = measured.ops[static_cast<std::size_t>(op.id)];
    if (m.id >= 0) append_events(os, first, op, m.start, m.end, "", 0);
    const OpTiming& t = timing.op_times[static_cast<std::size_t>(op.id)];
    if (t.started()) {
      append_events(os, first, op, t.start, t.end, "sim:", kNumStreamKinds);
    }
  }
  os << "]}";
  return os.str();
}

}  // namespace mpipe::sim
