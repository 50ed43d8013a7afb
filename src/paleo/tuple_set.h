// Tuple-id sets I_P: the sorted local-row-id lists selected by each
// candidate predicate over R' (paper Sections 4, 4.1). Predicates with
// identical tuple sets share data characteristics and are grouped so
// each distinct set is examined once.
//
// Thread-safety: plain value types; pure grouping functions over const
// inputs are safe to call concurrently.

#ifndef PALEO_PALEO_TUPLE_SET_H_
#define PALEO_PALEO_TUPLE_SET_H_

#include <cstdint>
#include <vector>

#include "storage/column.h"

namespace paleo {

/// Sorted, duplicate-free vector of local row ids into R'.
using TupleSet = std::vector<RowId>;

/// FNV-style hash of a tuple set (for grouping identical sets).
uint64_t HashTupleSet(const TupleSet& set);

}  // namespace paleo

#endif  // PALEO_PALEO_TUPLE_SET_H_
