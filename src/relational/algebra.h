#ifndef IQS_RELATIONAL_ALGEBRA_H_
#define IQS_RELATIONAL_ALGEBRA_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "relational/column_store.h"
#include "relational/predicate.h"
#include "relational/relation.h"

namespace iqs {

// Batch (columnar) selection, the scan a single-table WHERE over a
// stored relation runs through in SQL and QUEL (DESIGN.md §14):
// conjuncts of the shape `column <op> constant` run as typed tight loops
// over the column arrays, with zone-map block pruning in front, and
// everything else falls back to the row predicate over materialized
// survivors. The contract is byte-identity with a serial row-at-a-time
// scan of the same rows — same rows, same order, and the same first
// error.

// One WHERE conjunct as a typed condition, oriented column-first (the
// SQL layer builds these from its conjunct classification,
// sql/conjunct.h). `constant_first` records that the source predicate
// had the literal on the left (`5 > x`): comparison *results* are
// mirror-symmetric, but TypeError text is not, so generic evaluation
// re-applies the original orientation.
struct ColumnCondition {
  size_t column = 0;
  CompareOp op = CompareOp::kEq;  // column <op> constant
  Value constant;
  bool constant_first = false;
};

struct ColumnarScanStats {
  size_t blocks_total = 0;
  // Skipped whole: by zone-map min/max, or holding no selected row.
  size_t blocks_pruned = 0;
};

// Filters `rel` by `conditions` (in order) AND `residual` (may be
// null), returning admitted row ids in base order. With `selection`
// (ascending row ids, e.g. an index range) only those rows are
// candidates, and a block holding none of them counts as pruned.
// Parallel over blocks; merge is block-ordered, so output order and the
// first error reported match the serial row-at-a-time scan of the
// candidates exactly.
Result<std::vector<uint32_t>> ColumnarScan(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    ColumnarScanStats* stats, const std::vector<size_t>* selection = nullptr);

}  // namespace iqs

#endif  // IQS_RELATIONAL_ALGEBRA_H_
