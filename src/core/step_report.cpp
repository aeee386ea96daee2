#include "core/step_report.h"

#include <sstream>

#include "common/units.h"

namespace mpipe::core {

sim::OpClassCorrections StepReport::model_error() const {
  sim::CorrectionFit fit;
  fit.add(forward_diff);
  fit.add(backward_diff);
  return fit.fit();
}

std::string StepReport::model_error_summary() const {
  if (!profiled) return "(not profiled)";
  const sim::OpClassCorrections err = model_error();
  std::ostringstream os;
  os << "sim " << to_ms(step_seconds()) << " ms, measured "
     << to_ms(measured_step_seconds()) << " ms; measured/modeled compute x"
     << err.compute << ", comm x" << err.comm << ", memcpy x" << err.memcpy;
  return os.str();
}

}  // namespace mpipe::core
