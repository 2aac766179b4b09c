#ifndef RCC_EXEC_ITERATORS_H_
#define RCC_EXEC_ITERATORS_H_

#include <memory>

#include "exec/exec_context.h"

namespace rcc {

/// Builds the iterator tree for a bound physical plan (plan/bind.h). A tree
/// is built once per execution and may be re-opened (see RowIterator);
/// stateful operators — a SwitchUnion's guard verdict, a RemoteQuery's
/// serve record — keep what they decided across re-opens.
Result<std::unique_ptr<RowIterator>> BuildIterator(const PhysicalOp& op,
                                                   ExecContext* ctx);

}  // namespace rcc

#endif  // RCC_EXEC_ITERATORS_H_
