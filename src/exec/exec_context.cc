#include "exec/exec_context.h"

namespace rcc {

std::string_view DegradeModeName(DegradeMode mode) {
  static constexpr std::string_view kNames[] = {"none", "bounded", "always"};
  const auto i = static_cast<size_t>(mode);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

Result<bool> RowIterator::NextBatch(RowBatch* out, size_t max_rows) {
  out->Clear();
  Row row;
  while (out->rows.size() < max_rows) {
    RCC_ASSIGN_OR_RETURN(bool has, Next(&row));
    if (!has) break;
    out->rows.push_back(std::move(row));
  }
  return !out->rows.empty();
}

}  // namespace rcc
