// Test-only reference helpers over sorted tuple sets (paleo/tuple_set.h).
//
// The miner and the ranking finder work on entity segments of R' and no
// longer intersect row lists or count covered entities this way; the
// tests keep these straightforward versions as oracles for them.

#ifndef PALEO_TESTS_TUPLE_SET_REFERENCE_H_
#define PALEO_TESTS_TUPLE_SET_REFERENCE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "paleo/tuple_set.h"

namespace paleo {

/// Galloping (exponential) search intersection for when one side is
/// much smaller than the other.
inline TupleSet IntersectGalloping(const TupleSet& small,
                                   const TupleSet& large) {
  TupleSet out;
  out.reserve(small.size());
  auto it = large.begin();
  for (RowId v : small) {
    // Exponential probe from the current position.
    size_t step = 1;
    auto probe = it;
    while (probe != large.end() && *probe < v) {
      it = probe + 1;
      if (static_cast<size_t>(large.end() - probe) <= step) {
        probe = large.end();
        break;
      }
      probe += static_cast<ptrdiff_t>(step);
      step *= 2;
    }
    it = std::lower_bound(it, probe, v);
    if (it != large.end() && *it == v) {
      out.push_back(v);
      ++it;
    }
  }
  return out;
}

/// Intersection of two sorted tuple sets (linear merge with galloping
/// for skewed sizes).
inline TupleSet IntersectSorted(const TupleSet& a, const TupleSet& b) {
  if (a.empty() || b.empty()) return {};
  // Gallop when sizes are strongly skewed; linear merge otherwise.
  if (a.size() * 16 < b.size()) return IntersectGalloping(a, b);
  if (b.size() * 16 < a.size()) return IntersectGalloping(b, a);
  TupleSet out;
  out.reserve(std::min(a.size(), b.size()));
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

/// Number of distinct entities (by local entity index) covered by the
/// rows of `set`. `row_entity` maps local row -> entity index,
/// `num_entities` bounds the indices; `scratch` must hold
/// ceil(num_entities / 64) words and is cleared on entry.
inline int CountCoveredEntities(const TupleSet& set,
                                const std::vector<uint32_t>& row_entity,
                                int num_entities,
                                std::vector<uint64_t>* scratch) {
  size_t words = (static_cast<size_t>(num_entities) + 63) / 64;
  scratch->assign(words, 0);
  for (RowId row : set) {
    uint32_t e = row_entity[row];
    (*scratch)[e >> 6] |= (uint64_t{1} << (e & 63));
  }
  int covered = 0;
  for (uint64_t w : *scratch) covered += __builtin_popcountll(w);
  return covered;
}

}  // namespace paleo

#endif  // PALEO_TESTS_TUPLE_SET_REFERENCE_H_
