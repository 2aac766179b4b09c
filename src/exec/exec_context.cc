#include "exec/exec_context.h"

namespace rcc {

std::string_view DegradeModeName(DegradeMode mode) {
  static constexpr std::string_view kNames[] = {"none", "bounded", "always"};
  const auto i = static_cast<size_t>(mode);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

}  // namespace rcc
