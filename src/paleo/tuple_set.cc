#include "paleo/tuple_set.h"

namespace paleo {

uint64_t HashTupleSet(const TupleSet& set) {
  uint64_t h = 1469598103934665603ULL ^ set.size();
  for (RowId v : set) {
    h ^= v;
    h *= 1099511628211ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace paleo
