#include "sim/trace.h"

#include <algorithm>
#include <map>
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

std::string ascii_timeline(const OpGraph& graph, const TimingResult& timing,
                           int width) {
  MPIPE_EXPECTS(width > 10, "timeline too narrow");
  if (timing.makespan <= 0.0) return "(empty schedule)\n";

  // Collect the streams that actually ran anything.
  std::map<std::pair<int, int>, std::string> rows;
  for (const Op& op : graph.ops()) {
    const OpTiming& t = timing.op_times[static_cast<std::size_t>(op.id)];
    if (!t.started()) continue;
    for (int device : op.devices) {
      auto key = std::make_pair(device, static_cast<int>(op.stream));
      auto [it, inserted] =
          rows.try_emplace(key, std::string(static_cast<std::size_t>(width),
                                            '.'));
      std::string& row = it->second;
      int begin = static_cast<int>(t.start / timing.makespan * width);
      int end = static_cast<int>(t.end / timing.makespan * width);
      begin = std::clamp(begin, 0, width - 1);
      end = std::clamp(end, begin + 1, width);
      const char glyph = op.label.empty() ? '#' : op.label[0];
      for (int i = begin; i < end; ++i) {
        row[static_cast<std::size_t>(i)] = glyph;
      }
    }
  }

  std::ostringstream os;
  for (const auto& [key, row] : rows) {
    os << "dev" << key.first << ' '
       << to_string(static_cast<StreamKind>(key.second)) << " |" << row
       << "|\n";
  }
  os << "total " << to_ms(timing.makespan) << " ms\n";
  return os.str();
}

}  // namespace mpipe::sim
