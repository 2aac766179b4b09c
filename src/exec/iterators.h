#ifndef RCC_EXEC_ITERATORS_H_
#define RCC_EXEC_ITERATORS_H_

#include <memory>

#include "exec/exec_context.h"

namespace rcc {

/// Builds the iterator tree for a physical plan. `aliases` is the alias map
/// of the block the plan belongs to (subquery plans pass their own). A tree
/// is built once per execution and may be re-opened (see RowIterator);
/// stateful operators — a SwitchUnion's guard verdict, a RemoteQuery's
/// serve record — keep what they decided across re-opens.
Result<std::unique_ptr<RowIterator>> BuildIterator(const PhysicalOp& op,
                                                   ExecContext* ctx,
                                                   const AliasMap* aliases);

}  // namespace rcc

#endif  // RCC_EXEC_ITERATORS_H_
