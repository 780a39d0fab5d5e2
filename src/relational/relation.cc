#include "relational/relation.h"

#include <algorithm>

#include "common/string_util.h"

namespace iqs {

Status Relation::Insert(Tuple tuple) {
  if (tuple.size() != schema_.size()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into " + name_ + ": got " +
        std::to_string(tuple.size()) + " values, schema has " +
        std::to_string(schema_.size()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    const Value& v = tuple.at(i);
    if (v.is_null()) continue;
    ValueType expected = schema_.attribute(i).type;
    if (v.type() != expected) {
      // Allow int into real columns (widening); everything else is an error.
      if (expected == ValueType::kReal && v.type() == ValueType::kInt) {
        tuple.at(i) = Value::Real(static_cast<double>(v.AsInt()));
        continue;
      }
      return Status::TypeError("attribute '" + schema_.attribute(i).name +
                               "' of " + name_ + " expects " +
                               ValueTypeName(expected) + ", got " +
                               ValueTypeName(v.type()));
    }
  }
  std::vector<size_t> key = schema_.KeyIndices();
  if (!key.empty()) {
    for (const Tuple& existing : rows_) {
      bool same = true;
      for (size_t k : key) {
        if (existing.at(k) != tuple.at(k)) {
          same = false;
          break;
        }
      }
      if (same) {
        return Status::AlreadyExists("duplicate key inserting into " + name_ +
                                     ": " + tuple.ToString());
      }
    }
  }
  rows_.push_back(std::move(tuple));
  return Status::Ok();
}

Status Relation::InsertText(const std::vector<std::string>& fields) {
  if (fields.size() != schema_.size()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into " + name_ + ": got " +
        std::to_string(fields.size()) + " fields, schema has " +
        std::to_string(schema_.size()));
  }
  Tuple tuple;
  for (size_t i = 0; i < fields.size(); ++i) {
    IQS_ASSIGN_OR_RETURN(Value v,
                         Value::FromText(schema_.attribute(i).type, fields[i]));
    tuple.Append(std::move(v));
  }
  return Insert(std::move(tuple));
}

size_t Relation::DeleteWhere(const std::function<bool(const Tuple&)>& pred) {
  size_t before = rows_.size();
  rows_.erase(std::remove_if(rows_.begin(), rows_.end(), pred), rows_.end());
  return before - rows_.size();
}

Result<Value> Relation::GetValue(size_t i, const std::string& name) const {
  if (i >= rows_.size()) {
    return Status::InvalidArgument("row index out of range");
  }
  IQS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  return rows_[i].at(idx);
}

Result<std::vector<Value>> Relation::Column(const std::string& name) const {
  IQS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  std::vector<Value> out;
  out.reserve(rows_.size());
  for (const Tuple& t : rows_) out.push_back(t.at(idx));
  return out;
}

Result<std::pair<Value, Value>> Relation::ActiveDomain(
    const std::string& name) const {
  IQS_ASSIGN_OR_RETURN(size_t idx, schema_.IndexOf(name));
  bool seen = false;
  Value lo, hi;
  for (const Tuple& t : rows_) {
    const Value& v = t.at(idx);
    if (v.is_null()) continue;
    if (!seen) {
      lo = hi = v;
      seen = true;
    } else {
      if (v < lo) lo = v;
      if (v > hi) hi = v;
    }
  }
  if (!seen) {
    return Status::NotFound("column '" + name + "' of " + name_ +
                            " has no non-null values");
  }
  return std::make_pair(lo, hi);
}

void Relation::SortBy(const std::vector<std::pair<size_t, bool>>& keys) {
  std::stable_sort(rows_.begin(), rows_.end(),
                   [&keys](const Tuple& a, const Tuple& b) {
                     for (const auto& [idx, desc] : keys) {
                       int c = a.at(idx).Compare(b.at(idx));
                       if (c != 0) return desc ? c > 0 : c < 0;
                     }
                     return false;
                   });
}

std::string Relation::ToTable() const {
  std::vector<size_t> widths(schema_.size());
  for (size_t i = 0; i < schema_.size(); ++i) {
    widths[i] = schema_.attribute(i).name.size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows_.size());
  for (const Tuple& t : rows_) {
    std::vector<std::string> row;
    row.reserve(t.size());
    for (size_t i = 0; i < t.size(); ++i) {
      row.push_back(t.at(i).ToString());
      widths[i] = std::max(widths[i], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  std::string out;
  auto add_rule = [&] {
    out += "+";
    for (size_t w : widths) {
      out.append(w + 2, '-');
      out += "+";
    }
    out += "\n";
  };
  add_rule();
  out += "|";
  for (size_t i = 0; i < schema_.size(); ++i) {
    out += " " + PadRight(schema_.attribute(i).name, widths[i]) + " |";
  }
  out += "\n";
  add_rule();
  for (const auto& row : cells) {
    out += "|";
    for (size_t i = 0; i < row.size(); ++i) {
      out += " " + PadRight(row[i], widths[i]) + " |";
    }
    out += "\n";
  }
  add_rule();
  return out;
}

}  // namespace iqs
