#include "fpga/config.h"

namespace fpart {

const char* OutputModeName(OutputMode mode) {
  return mode == OutputMode::kHist ? "HIST" : "PAD";
}

const char* LayoutModeName(LayoutMode mode) {
  switch (mode) {
    case LayoutMode::kRid:
      return "RID";
    case LayoutMode::kVrid:
      return "VRID";
    case LayoutMode::kCompressed:
      return "COMPRESSED";
  }
  return "unknown";
}

const char* SimModeName(SimMode mode) {
  switch (mode) {
    case SimMode::kReference:
      return "reference";
    case SimMode::kFast:
      return "fast";
  }
  return "unknown";
}

bool ParseSimMode(const std::string& name, SimMode* mode) {
  if (name == "reference") {
    *mode = SimMode::kReference;
  } else if (name == "fast") {
    *mode = SimMode::kFast;
  } else {
    return false;
  }
  return true;
}

}  // namespace fpart
