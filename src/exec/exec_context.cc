#include "exec/exec_context.h"

namespace rcc {

std::string_view DegradeModeName(DegradeMode mode) {
  switch (mode) {
    case DegradeMode::kNone:
      return "none";
    case DegradeMode::kBounded:
      return "bounded";
    case DegradeMode::kAlways:
      return "always";
  }
  return "unknown";
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
