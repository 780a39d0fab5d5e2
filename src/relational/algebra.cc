#include "relational/algebra.h"

#include <map>
#include <set>

#include "common/string_util.h"
#include "exec/exec_context.h"
#include "exec/parallel.h"

namespace iqs {

namespace {

// True when `name` already contains a qualifier dot.
bool IsQualified(const std::string& name) {
  return name.find('.') != std::string::npos;
}

Status CheckUnionCompatible(const Relation& left, const Relation& right) {
  if (left.schema().size() != right.schema().size()) {
    return Status::TypeError("schemas have different arity: " +
                             left.name() + " vs " + right.name());
  }
  for (size_t i = 0; i < left.schema().size(); ++i) {
    if (left.schema().attribute(i).type != right.schema().attribute(i).type) {
      return Status::TypeError(
          "attribute " + std::to_string(i) + " type mismatch: " +
          std::string(ValueTypeName(left.schema().attribute(i).type)) +
          " vs " + ValueTypeName(right.schema().attribute(i).type));
    }
  }
  return Status::Ok();
}

Schema StripKeys(const Schema& schema) {
  std::vector<AttributeDef> attrs = schema.attributes();
  for (AttributeDef& a : attrs) a.is_key = false;
  return Schema(std::move(attrs));
}

}  // namespace

Relation QualifyAttributes(const Relation& input) {
  std::vector<AttributeDef> attrs = input.schema().attributes();
  for (AttributeDef& a : attrs) {
    if (!IsQualified(a.name)) a.name = input.name() + "." + a.name;
    a.is_key = false;
  }
  Relation out(input.name(), Schema(std::move(attrs)));
  for (const Tuple& t : input.rows()) out.AppendUnchecked(t);
  return out;
}

Result<Relation> Select(const Relation& input, const Predicate& pred) {
  // Partitioned scan: chunks evaluate the predicate independently into
  // local row vectors, concatenated in chunk order — the output row order
  // (and the first error reported) matches the serial scan exactly.
  const std::vector<Tuple>& rows = input.rows();
  using Part = Result<std::vector<Tuple>>;
  Part kept = exec::ParallelReduce<Part>(
      "exec.scan", rows.size(), 256, std::vector<Tuple>{},
      [&rows, &pred](size_t begin, size_t end) -> Part {
        std::vector<Tuple> local;
        for (size_t i = begin; i < end; ++i) {
          if (((i - begin) & 1023) == 0) IQS_GOV_CHECKPOINT("sql.scan");
          IQS_ASSIGN_OR_RETURN(bool keep, pred.Eval(rows[i]));
          if (keep) local.push_back(rows[i]);
        }
        return local;
      },
      [](Part* acc, Part&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        std::vector<Tuple>& dst = **acc;
        for (Tuple& t : *part) dst.push_back(std::move(t));
      });
  if (!kept.ok()) return kept.status();
  Relation out(input.name() + "+sel", StripKeys(input.schema()));
  for (Tuple& t : *kept) out.AppendUnchecked(std::move(t));
  return out;
}

Result<Relation> Project(const Relation& input,
                         const std::vector<std::string>& attribute_names,
                         bool distinct) {
  std::vector<size_t> indices;
  std::vector<AttributeDef> attrs;
  indices.reserve(attribute_names.size());
  for (const std::string& name : attribute_names) {
    IQS_ASSIGN_OR_RETURN(size_t idx, input.schema().IndexOf(name));
    indices.push_back(idx);
    AttributeDef def = input.schema().attribute(idx);
    def.is_key = false;
    attrs.push_back(def);
  }
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out(input.name() + "+proj", std::move(schema));
  std::set<Tuple> seen;
  for (const Tuple& t : input.rows()) {
    Tuple projected;
    for (size_t idx : indices) projected.Append(t.at(idx));
    if (distinct) {
      if (!seen.insert(projected).second) continue;
    }
    out.AppendUnchecked(std::move(projected));
  }
  return out;
}

Result<Relation> SortedUniqueProject(
    const Relation& input, const std::vector<std::string>& attribute_names,
    const std::vector<std::string>& sort_by) {
  IQS_ASSIGN_OR_RETURN(Relation out,
                       Project(input, attribute_names, /*distinct=*/true));
  IQS_RETURN_IF_ERROR(out.SortBy(sort_by));
  return out;
}

Relation Distinct(const Relation& input) {
  Relation out(input.name() + "+distinct", StripKeys(input.schema()));
  std::set<Tuple> seen;
  for (const Tuple& t : input.rows()) {
    if (seen.insert(t).second) out.AppendUnchecked(t);
  }
  return out;
}

Result<Relation> CrossProduct(const Relation& left, const Relation& right) {
  Relation ql = QualifyAttributes(left);
  Relation qr = QualifyAttributes(right);
  std::vector<AttributeDef> attrs = ql.schema().attributes();
  attrs.insert(attrs.end(), qr.schema().attributes().begin(),
               qr.schema().attributes().end());
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out(left.name() + "x" + right.name(), std::move(schema));
  for (const Tuple& lt : ql.rows()) {
    for (const Tuple& rt : qr.rows()) {
      out.AppendUnchecked(Tuple::Concat(lt, rt));
    }
  }
  return out;
}

Result<Relation> EquiJoin(const Relation& left, const std::string& left_attr,
                          const Relation& right,
                          const std::string& right_attr) {
  IQS_ASSIGN_OR_RETURN(size_t li, left.schema().IndexOf(left_attr));
  IQS_ASSIGN_OR_RETURN(size_t ri, right.schema().IndexOf(right_attr));
  Relation ql = QualifyAttributes(left);
  Relation qr = QualifyAttributes(right);
  std::vector<AttributeDef> attrs = ql.schema().attributes();
  attrs.insert(attrs.end(), qr.schema().attributes().begin(),
               qr.schema().attributes().end());
  IQS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  Relation out(left.name() + "*" + right.name(), std::move(schema));

  // Index the right side under an ordering consistent with Value::Compare
  // (INT 12345678901 meets REAL 12345678901.0), then re-check candidates
  // with operator==.
  std::multimap<Value, size_t, ValueKeyLess> index;
  for (size_t r = 0; r < qr.size(); ++r) {
    const Value& v = qr.row(r).at(ri);
    if (v.is_null()) continue;
    index.emplace(v, r);
  }
  for (const Tuple& lt : ql.rows()) {
    const Value& v = lt.at(li);
    if (v.is_null()) continue;
    auto [begin, end] = index.equal_range(v);
    for (auto it = begin; it != end; ++it) {
      // The key order merges INTs beyond 2^53; equality is Compare's.
      if (qr.row(it->second).at(ri) != v) continue;
      out.AppendUnchecked(Tuple::Concat(lt, qr.row(it->second)));
    }
  }
  return out;
}

Result<Relation> Union(const Relation& left, const Relation& right) {
  IQS_RETURN_IF_ERROR(CheckUnionCompatible(left, right));
  Relation out(left.name() + "+union", StripKeys(left.schema()));
  std::set<Tuple> seen;
  for (const Relation* rel : {&left, &right}) {
    for (const Tuple& t : rel->rows()) {
      if (seen.insert(t).second) out.AppendUnchecked(t);
    }
  }
  return out;
}

Result<Relation> Difference(const Relation& left, const Relation& right) {
  IQS_RETURN_IF_ERROR(CheckUnionCompatible(left, right));
  std::set<Tuple> remove(right.rows().begin(), right.rows().end());
  Relation out(left.name() + "+diff", StripKeys(left.schema()));
  std::set<Tuple> seen;
  for (const Tuple& t : left.rows()) {
    if (remove.count(t) > 0) continue;
    if (seen.insert(t).second) out.AppendUnchecked(t);
  }
  return out;
}

Result<Relation> Intersect(const Relation& left, const Relation& right) {
  IQS_RETURN_IF_ERROR(CheckUnionCompatible(left, right));
  std::set<Tuple> keep(right.rows().begin(), right.rows().end());
  Relation out(left.name() + "+intersect", StripKeys(left.schema()));
  std::set<Tuple> seen;
  for (const Tuple& t : left.rows()) {
    if (keep.count(t) == 0) continue;
    if (seen.insert(t).second) out.AppendUnchecked(t);
  }
  return out;
}

Result<Value> AggregateMin(const Relation& input, const std::string& attr) {
  IQS_ASSIGN_OR_RETURN(auto domain, input.ActiveDomain(attr));
  return domain.first;
}

Result<Value> AggregateMax(const Relation& input, const std::string& attr) {
  IQS_ASSIGN_OR_RETURN(auto domain, input.ActiveDomain(attr));
  return domain.second;
}

Result<int64_t> AggregateCount(const Relation& input,
                               const std::string& attr) {
  if (attr == "*") return static_cast<int64_t>(input.size());
  IQS_ASSIGN_OR_RETURN(std::vector<Value> column, input.Column(attr));
  int64_t count = 0;
  for (const Value& v : column) {
    if (!v.is_null()) ++count;
  }
  return count;
}

Result<Relation> GroupCount(const Relation& input,
                            const std::string& group_attr) {
  IQS_ASSIGN_OR_RETURN(size_t idx, input.schema().IndexOf(group_attr));
  // Per-partition count maps merged by integer addition: associative and
  // lands in an ordered map, so the result is independent of partitioning.
  const std::vector<Tuple>& rows = input.rows();
  std::map<Value, int64_t> counts = exec::ParallelReduce<
      std::map<Value, int64_t>>(
      "exec.aggregate", rows.size(), 512, {},
      [&rows, idx](size_t begin, size_t end) {
        std::map<Value, int64_t> local;
        for (size_t i = begin; i < end; ++i) local[rows[i].at(idx)] += 1;
        return local;
      },
      [](std::map<Value, int64_t>* acc, std::map<Value, int64_t>&& part) {
        for (auto& [value, count] : part) (*acc)[value] += count;
      });
  AttributeDef group_def = input.schema().attribute(idx);
  group_def.is_key = false;
  IQS_ASSIGN_OR_RETURN(
      Schema schema,
      Schema::Create({group_def, {"count", ValueType::kInt, false}}));
  Relation out(input.name() + "+groupcount", std::move(schema));
  for (const auto& [value, count] : counts) {
    out.AppendUnchecked(Tuple({value, Value::Int(count)}));
  }
  return out;
}

// ---- Batch (columnar) execution -------------------------------------

namespace {

CompareOp MirrorOp(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // kEq/kNe are symmetric; kLike is never mirrored
  }
}

// In-order AND flattening; matches AndPredicate::Eval's left-to-right,
// short-circuiting leaf evaluation order.
void FlattenAnd(const PredicatePtr& pred, std::vector<PredicatePtr>* leaves) {
  if (const auto* a = dynamic_cast<const AndPredicate*>(pred.get())) {
    FlattenAnd(a->lhs(), leaves);
    FlattenAnd(a->rhs(), leaves);
    return;
  }
  leaves->push_back(pred);
}

bool ExtractLeaf(const Predicate& leaf, const ColumnarRelation& rel,
                 ColumnCondition* out) {
  const auto* cmp = dynamic_cast<const ComparePredicate*>(&leaf);
  if (cmp == nullptr) return false;
  const auto* lcol = dynamic_cast<const ColumnExpr*>(&cmp->lhs());
  const auto* rconst = dynamic_cast<const ConstantExpr*>(&cmp->rhs());
  const auto* lconst = dynamic_cast<const ConstantExpr*>(&cmp->lhs());
  const auto* rcol = dynamic_cast<const ColumnExpr*>(&cmp->rhs());
  size_t column = 0;
  if (lcol != nullptr && rconst != nullptr) {
    column = lcol->index();
    out->op = cmp->op();
    out->constant = rconst->value();
    out->constant_first = false;
  } else if (lconst != nullptr && rcol != nullptr) {
    column = rcol->index();
    out->op = MirrorOp(cmp->op());
    out->constant = lconst->value();
    out->constant_first = true;
  } else {
    return false;
  }
  if (column >= rel.schema().size()) return false;
  if (rel.column(column).storage() == Column::Storage::kMixed) return false;
  out->column = column;
  return true;
}

// Type-level comparability between a typed column and a non-null
// constant; kMixed is conservatively incomparable (per-row types are
// unknown up front).
bool StorageComparableWith(Column::Storage s, ValueType t) {
  switch (s) {
    case Column::Storage::kInt:
    case Column::Storage::kReal:
      return t == ValueType::kInt || t == ValueType::kReal;
    case Column::Storage::kString:
      return t == ValueType::kString;
    case Column::Storage::kDate:
      return t == ValueType::kDate;
    case Column::Storage::kMixed:
      return false;
  }
  return false;
}

// Could this condition surface a TypeError on some row? True exactly
// when every non-null entry errors (types are uniform per typed
// column), which is what makes conjunct-major evaluation reproduce the
// row-major first error.
bool ConditionMayError(const Column& col, const ColumnCondition& cond) {
  if (cond.constant.is_null()) return false;      // null compares are false
  if (cond.op == CompareOp::kLike) return false;  // LIKE never errors
  return !StorageComparableWith(col.storage(), cond.constant.type());
}

bool OpHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
    case CompareOp::kLike:
      break;  // never reaches the three-way path
  }
  return false;
}

// Can block `b` contribute no rows to `cond`? Only consulted for
// conditions that cannot error (an error must be produced, never
// zone-skipped).
bool BlockPrunable(const ColumnarRelation& rel, const ColumnCondition& cond,
                   size_t b) {
  const BlockStats& st = rel.stats(cond.column, b);
  if (st.non_null == 0) return true;  // all-null: every compare is false
  if (cond.constant.is_null()) return true;
  if (cond.op == CompareOp::kLike) return false;
  const Value& c = cond.constant;
  switch (cond.op) {
    case CompareOp::kEq:
      return c.Compare(st.min) < 0 || c.Compare(st.max) > 0;
    case CompareOp::kNe:
      return st.min.Compare(c) == 0 && st.max.Compare(c) == 0;
    case CompareOp::kLt:
      return st.min.Compare(c) >= 0;
    case CompareOp::kLe:
      return st.min.Compare(c) > 0;
    case CompareOp::kGt:
      return st.max.Compare(c) <= 0;
    case CompareOp::kGe:
      return st.max.Compare(c) < 0;
    case CompareOp::kLike:
      break;
  }
  return false;
}

int Sign3(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

// Keeps rows passing `test`: appends [first, last) survivors when
// building the selection, compacts `sel` in place when refining it.
template <typename Test>
void Sieve(bool build, size_t first, size_t last, Test&& test,
           std::vector<uint32_t>* sel) {
  if (build) {
    for (size_t r = first; r < last; ++r) {
      if (test(r)) sel->push_back(static_cast<uint32_t>(r));
    }
    return;
  }
  size_t w = 0;
  for (uint32_t r : *sel) {
    if (test(r)) (*sel)[w++] = r;
  }
  sel->resize(w);
}

// Typed three-way compare loops; `cmp(r)` must reproduce
// Value::Compare(column[r], constant) exactly.
template <typename Cmp>
void SieveTyped(CompareOp op, const std::vector<uint8_t>& nulls, Cmp cmp,
                bool build, size_t first, size_t last,
                std::vector<uint32_t>* sel) {
  Sieve(
      build, first, last,
      [&](size_t r) { return nulls[r] == 0 && OpHolds(op, cmp(r)); }, sel);
}

// Applies one condition over block rows [first, last): typed tight loop
// when the storage and constant types allow, generic ApplyCompare
// (with the original operand orientation) otherwise.
Status ApplyCondition(const ColumnarRelation& rel, const ColumnCondition& cond,
                      bool build, size_t first, size_t last,
                      std::vector<uint32_t>* sel) {
  const Column& col = rel.column(cond.column);
  const Value& cv = cond.constant;
  if (cv.is_null()) {
    // ApplyCompare against null is false for every row.
    sel->clear();
    return Status::Ok();
  }
  const std::vector<uint8_t>& nulls = col.null_mask();
  if (cond.op != CompareOp::kLike &&
      StorageComparableWith(col.storage(), cv.type())) {
    switch (col.storage()) {
      case Column::Storage::kInt: {
        const std::vector<int64_t>& v = col.ints();
        if (cv.type() == ValueType::kInt) {
          int64_t c = cv.AsInt();
          SieveTyped(
              cond.op, nulls,
              [&](size_t r) { return v[r] < c ? -1 : (v[r] > c ? 1 : 0); },
              build, first, last, sel);
        } else {
          double c = cv.AsReal();
          SieveTyped(
              cond.op, nulls,
              [&](size_t r) { return Sign3(static_cast<double>(v[r]) - c); },
              build, first, last, sel);
        }
        return Status::Ok();
      }
      case Column::Storage::kReal: {
        const std::vector<double>& v = col.reals();
        double c = cv.type() == ValueType::kInt
                       ? static_cast<double>(cv.AsInt())
                       : cv.AsReal();
        SieveTyped(
            cond.op, nulls, [&](size_t r) { return Sign3(v[r] - c); }, build,
            first, last, sel);
        return Status::Ok();
      }
      case Column::Storage::kString: {
        const std::vector<std::string>& v = col.strings();
        const std::string& c = cv.AsString();
        SieveTyped(
            cond.op, nulls,
            [&](size_t r) {
              int d = v[r].compare(c);
              return d < 0 ? -1 : (d > 0 ? 1 : 0);
            },
            build, first, last, sel);
        return Status::Ok();
      }
      case Column::Storage::kDate: {
        const std::vector<Date>& v = col.dates();
        int64_t c = cv.AsDate().ToEpochDays();
        SieveTyped(
            cond.op, nulls,
            [&](size_t r) {
              int64_t d = v[r].ToEpochDays();
              return d < c ? -1 : (d > c ? 1 : 0);
            },
            build, first, last, sel);
        return Status::Ok();
      }
      case Column::Storage::kMixed:
        break;  // unreachable: StorageComparableWith rejects kMixed
    }
  }
  // Generic path: kLike, incomparable types (which error on non-null
  // rows), and kMixed storage. Re-applies the source orientation so
  // TypeError text matches the row scan.
  CompareOp orig = cond.constant_first ? MirrorOp(cond.op) : cond.op;
  Status status = Status::Ok();
  Sieve(
      build, first, last,
      [&](size_t r) {
        if (!status.ok()) return false;
        Value v = col.Get(r);
        Result<bool> keep = cond.constant_first ? ApplyCompare(orig, cv, v)
                                                : ApplyCompare(orig, v, cv);
        if (!keep.ok()) {
          status = keep.status();
          return false;
        }
        return *keep;
      },
      sel);
  return status;
}

Result<std::vector<uint32_t>> EvalColumnarBlock(
    const ColumnarRelation& rel, const std::vector<ColumnCondition>& conds,
    const Predicate* residual, size_t first, size_t last) {
  std::vector<uint32_t> sel;
  bool built = false;
  for (const ColumnCondition& cond : conds) {
    IQS_RETURN_IF_ERROR(ApplyCondition(rel, cond, !built, first, last, &sel));
    built = true;
    // Every remaining row was rejected; later conjuncts (and the
    // residual) never see them in the row scan either.
    if (sel.empty()) return sel;
  }
  if (!built) {
    sel.reserve(last - first);
    for (size_t r = first; r < last; ++r) {
      sel.push_back(static_cast<uint32_t>(r));
    }
  }
  if (residual != nullptr && !sel.empty()) {
    size_t w = 0;
    for (uint32_t r : sel) {
      IQS_ASSIGN_OR_RETURN(bool keep, residual->Eval(rel.MaterializeRow(r)));
      if (keep) sel[w++] = r;
    }
    sel.resize(w);
  }
  return sel;
}

}  // namespace

ExtractedConjuncts ExtractColumnConditions(const PredicatePtr& pred,
                                           const ColumnarRelation& rel) {
  ExtractedConjuncts out;
  if (pred == nullptr) return out;
  std::vector<PredicatePtr> leaves;
  FlattenAnd(pred, &leaves);
  size_t i = 0;
  for (; i < leaves.size(); ++i) {
    ColumnCondition cond;
    if (!ExtractLeaf(*leaves[i], rel, &cond)) break;
    out.conditions.push_back(std::move(cond));
  }
  // Re-fold the remaining leaves left-associatively; AND leaf order (and
  // so evaluation order) is invariant under re-association.
  for (; i < leaves.size(); ++i) {
    out.residual = out.residual == nullptr
                       ? leaves[i]
                       : MakeAnd(std::move(out.residual), leaves[i]);
  }
  return out;
}

Result<std::vector<uint32_t>> ColumnarScan(
    const ColumnarRelation& rel,
    const std::vector<ColumnCondition>& conditions, const Predicate* residual,
    ColumnarScanStats* stats) {
  size_t blocks = rel.block_count();

  // Zone pruning may consult conjuncts only up to the first one that
  // could surface an error: that error must be produced, not skipped.
  size_t prunable_prefix = 0;
  for (const ColumnCondition& c : conditions) {
    if (ConditionMayError(rel.column(c.column), c)) break;
    ++prunable_prefix;
  }

  struct Acc {
    std::vector<uint32_t> rows;
    size_t pruned = 0;
  };
  using Part = Result<Acc>;
  Part merged = exec::ParallelReduce<Part>(
      "exec.scan.columnar", blocks, 1, Acc{},
      [&](size_t bfirst, size_t bend) -> Part {
        Acc local;
        for (size_t b = bfirst; b < bend; ++b) {
          // One governance check per 1024-row block — pruned or scanned,
          // the deadline is observed at block cadence.
          IQS_GOV_CHECKPOINT("columnar.scan");
          bool pruned = false;
          for (size_t i = 0; i < prunable_prefix && !pruned; ++i) {
            pruned = BlockPrunable(rel, conditions[i], b);
          }
          if (pruned) {
            ++local.pruned;
            continue;
          }
          auto [first, last] = rel.BlockRange(b);
          IQS_ASSIGN_OR_RETURN(
              std::vector<uint32_t> kept,
              EvalColumnarBlock(rel, conditions, residual, first, last));
          local.rows.insert(local.rows.end(), kept.begin(), kept.end());
        }
        return local;
      },
      [](Part* acc, Part&& part) {
        if (!acc->ok()) return;
        if (!part.ok()) {
          *acc = std::move(part);
          return;
        }
        Acc& dst = **acc;
        dst.rows.insert(dst.rows.end(), part->rows.begin(), part->rows.end());
        dst.pruned += part->pruned;
      });
  if (!merged.ok()) return merged.status();
  if (stats != nullptr) {
    stats->blocks_total = blocks;
    stats->blocks_pruned = merged->pruned;
  }
  return std::move(merged->rows);
}

}  // namespace iqs
