#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "induction/induction_config.h"
#include "testbed/ship_db.h"

namespace perfbench {

using iqs::Result;
using iqs::Status;

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kAppendixCWire, Workload::kFleetMix,
                     Workload::kFleetChurn}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kAppendixCWire: return "appendix_c_wire";
    case Workload::kFleetMix: return "fleet_mix";
    case Workload::kFleetChurn: return "fleet_churn";
  }
  return "?";
}

// ---- appendix_c_wire ------------------------------------------------------

std::vector<std::string> AppendixCQueries() {
  std::vector<std::string> queries = {
      iqs::Example1Sql(),
      iqs::Example2Sql(),
      iqs::Example3Sql(),
      "SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '0204'",
      "SELECT ClassName, Type FROM CLASS WHERE Displacement >= 7250",
      "SELECT Type, COUNT(*) FROM CLASS GROUP BY Type ORDER BY Type",
      "SELECT Sonar FROM SONAR WHERE SONAR.SonarType = 'BQQ'",
  };
  for (const char* cls : {"0101", "0102", "0103", "0201", "0203", "0205",
                          "0207", "0208", "0209", "0212", "0215", "1301"}) {
    queries.push_back("SELECT Id FROM SUBMARINE WHERE SUBMARINE.Class = '" +
                      std::string(cls) + "'");
  }
  for (int d = 2000; d <= 31000; d += 250) {
    if (d == 7250) continue;  // the golden query above
    queries.push_back("SELECT ClassName, Type FROM CLASS WHERE Displacement >= " +
                      std::to_string(d));
  }
  for (int d = 2000; d <= 30000; d += 500) {
    if (d == 8000) continue;  // Example 1
    queries.push_back(
        "SELECT SUBMARINE.ID, SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE "
        "FROM SUBMARINE, CLASS WHERE SUBMARINE.CLASS = CLASS.CLASS "
        "AND CLASS.DISPLACEMENT > " +
        std::to_string(d));
  }
  for (int d = 2000; d <= 30000; d += 1000) {
    queries.push_back(
        "SELECT Type, COUNT(*) FROM CLASS WHERE Displacement > " +
        std::to_string(d) + " GROUP BY Type ORDER BY Type");
  }
  queries.push_back(
      "SELECT SUBMARINE.NAME, SUBMARINE.CLASS FROM SUBMARINE, CLASS "
      "WHERE SUBMARINE.CLASS = CLASS.CLASS AND CLASS.TYPE = 'SSN'");
  for (const char* sonar : {"BQQ-2", "BQQ-5", "BQQ-8", "BQS-12", "BQS-13",
                            "BQS-15", "TACTAS"}) {
    queries.push_back(
        "SELECT SUBMARINE.NAME, SUBMARINE.CLASS, CLASS.TYPE "
        "FROM SUBMARINE, CLASS, INSTALL WHERE SUBMARINE.CLASS = CLASS.CLASS "
        "AND SUBMARINE.ID = INSTALL.SHIP AND INSTALL.SONAR = '" +
        std::string(sonar) + "'");
  }
  for (const char* type : {"BQS", "TACTAS"}) {
    queries.push_back("SELECT Sonar FROM SONAR WHERE SONAR.SonarType = '" +
                      std::string(type) + "'");
  }
  return queries;
}

SkewedPicker::SkewedPicker(size_t n, uint64_t order_seed, uint64_t pick_seed)
    : rng_(pick_seed) {
  iqs::SplitMix64 shuffle(order_seed);
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  for (size_t i = n; i > 1; --i) {  // seeded Fisher-Yates
    std::swap(order_[i - 1], order_[shuffle.Next() % i]);
  }
  double total = 0.0;
  cumulative_.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::sqrt(static_cast<double>(k + 1));
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

size_t SkewedPicker::Next() {
  const double u =
      static_cast<double>(rng_.Next() >> 11) * (1.0 / 9007199254740992.0);
  size_t k = static_cast<size_t>(
      std::upper_bound(cumulative_.begin(), cumulative_.end(), u) -
      cumulative_.begin());
  return order_[std::min(k, order_.size() - 1)];
}

// ---- fleet --------------------------------------------------------------

const char* FleetClassName(FleetClass cls) {
  switch (cls) {
    case FleetClass::kPoint: return "point";
    case FleetClass::kNarrow: return "narrow";
    case FleetClass::kRange: return "range";
    case FleetClass::kEmpty: return "empty";
    case FleetClass::kJoin: return "join";
    case FleetClass::kGroupBy: return "group_by";
  }
  return "?";
}

namespace {

// Lowest and highest displacement over all Table 1 bands.
constexpr int64_t kMinBand = 1720;
constexpr int64_t kMaxBand = 81600;

}  // namespace

FleetQuery FleetQueryGenerator::Next(
    const std::vector<std::string>& live_ids) {
  if (next_class_ == kFleetClassCount) {  // a fresh shuffled block
    for (int i = kFleetClassCount; i > 1; --i) {
      std::swap(classes_[i - 1], classes_[rng_.Next() % i]);
    }
    next_class_ = 0;
  }
  FleetQuery q;
  q.cls = classes_[next_class_++];
  switch (q.cls) {
    case FleetClass::kPoint: {
      const std::string& id = live_ids[rng_.Next() % live_ids.size()];
      q.sql = "SELECT Id, Name, Type, Displacement FROM BATTLESHIP "
              "WHERE Id = '" + id + "'";
      break;
    }
    case FleetClass::kNarrow: {
      // A Type restriction plus a displacement floor at or below the
      // type's band: the floor never removes a row, and with a fresh
      // literal each time the answer cache cannot serve it.
      const auto& specs = iqs::Table1Specs();
      const iqs::FleetTypeSpec& spec = specs[rng_.Next() % specs.size()];
      const int64_t floor = rng_.NextInRange(
          std::max<int64_t>(0, spec.displacement_lo - 20000),
          spec.displacement_lo);
      q.sql = "SELECT Id, Name, Displacement FROM BATTLESHIP WHERE Type = '" +
              std::string(spec.type) +
              "' AND Displacement >= " + std::to_string(floor);
      break;
    }
    case FleetClass::kRange: {
      const int64_t lo = rng_.NextInRange(kMinBand, kMaxBand);
      const int64_t hi = lo + rng_.NextInRange(100, 3000);
      q.sql = "SELECT Id, Type, Displacement FROM BATTLESHIP WHERE "
              "Displacement BETWEEN " + std::to_string(lo) + " AND " +
              std::to_string(hi);
      break;
    }
    case FleetClass::kEmpty: {
      const int64_t v = rng_.NextInRange(kMaxBand + 1, 10000000);
      q.sql = "SELECT Id, Name FROM BATTLESHIP WHERE Displacement > " +
              std::to_string(v);
      break;
    }
    case FleetClass::kJoin: {
      const int64_t lo = rng_.NextInRange(kMinBand, kMaxBand);
      const int64_t hi = lo + rng_.NextInRange(1000, 10000);
      q.sql = "SELECT BATTLESHIP.Id, SHIPTYPE.TypeName FROM BATTLESHIP, "
              "SHIPTYPE WHERE BATTLESHIP.Type = SHIPTYPE.Type AND "
              "BATTLESHIP.Displacement BETWEEN " + std::to_string(lo) +
              " AND " + std::to_string(hi);
      break;
    }
    case FleetClass::kGroupBy: {
      const int64_t v = rng_.NextInRange(kMinBand, kMaxBand);
      q.sql = "SELECT Type, COUNT(*) FROM BATTLESHIP WHERE Displacement <= " +
              std::to_string(v) + " GROUP BY Type ORDER BY Type";
      break;
    }
  }
  return q;
}

// ---- set-up -----------------------------------------------------------------

Result<std::unique_ptr<iqs::IqsSystem>> BuildAppendixC() {
  IQS_ASSIGN_OR_RETURN(std::unique_ptr<iqs::IqsSystem> system,
                       iqs::BuildShipSystem());
  IQS_RETURN_IF_ERROR(system->database().CreateIndex("CLASS", "Displacement"));
  IQS_RETURN_IF_ERROR(InduceRules(*system, nullptr, 0, nullptr));
  return system;
}

Result<std::unique_ptr<iqs::IqsSystem>> BuildFleet(size_t ships_per_type,
                                                   uint64_t seed) {
  IQS_ASSIGN_OR_RETURN(std::unique_ptr<iqs::Database> db,
                       iqs::GenerateFleet(ships_per_type, seed));
  IQS_ASSIGN_OR_RETURN(std::unique_ptr<iqs::KerCatalog> catalog,
                       iqs::BuildFleetCatalog());
  IQS_ASSIGN_OR_RETURN(
      std::unique_ptr<iqs::IqsSystem> system,
      iqs::IqsSystem::Create(std::move(db), std::move(catalog)));
  IQS_RETURN_IF_ERROR(
      system->database().CreateIndex("BATTLESHIP", "Displacement"));
  IQS_RETURN_IF_ERROR(InduceRules(*system, nullptr, 0, nullptr));
  return system;
}

const char* WriteRelation(Workload workload) {
  return workload == Workload::kAppendixCWire ? "CLASS" : "BATTLESHIP";
}

std::vector<std::string> ShipIds(const iqs::Database& db) {
  std::vector<std::string> ids;
  auto ships = db.Get("BATTLESHIP");
  if (!ships.ok()) return ids;
  for (const iqs::Tuple& row : (*ships)->rows()) {
    ids.push_back(row.at(0).AsString());
  }
  return ids;
}

// ---- writes and induction -------------------------------------------------

Status ApplyWriteBatch(iqs::Database& db, const std::string& relation,
                       const WriteBatch& batch, SpanRecorder* spans,
                       uint64_t request) {
  // GetMutable drops the relation's indexes; the caller rebuilds them.
  const std::vector<std::string> indexed = db.IndexedAttributes(relation);
  {
    ScopedSpan span(spans, "relational.write_batch", request);
    IQS_ASSIGN_OR_RETURN(iqs::Relation * rel, db.GetMutable(relation));
    const std::unordered_set<std::string> doomed(batch.victims.begin(),
                                                 batch.victims.end());
    const size_t deleted = rel->DeleteWhere([&](const iqs::Tuple& row) {
      return doomed.count(row.at(0).AsString()) > 0;
    });
    if (deleted != doomed.size()) {
      return Status::Internal("write batch deleted " +
                              std::to_string(deleted) + " rows, expected " +
                              std::to_string(doomed.size()));
    }
    for (const iqs::Tuple& row : batch.fresh) {
      IQS_RETURN_IF_ERROR(rel->Insert(row));
    }
  }
  ScopedSpan span(spans, "relational.create_index", request);
  for (const std::string& attribute : indexed) {
    IQS_RETURN_IF_ERROR(db.CreateIndex(relation, attribute));
  }
  return Status::Ok();
}

Status InduceRules(iqs::IqsSystem& system, SpanRecorder* spans,
                   uint64_t request, size_t* rules_induced) {
  iqs::InductionConfig config;
  config.min_support = 3;
  if (spans == nullptr) {
    IQS_RETURN_IF_ERROR(system.Induce(config));
    if (rules_induced != nullptr) {
      *rules_induced = system.dictionary().induced_rules_snapshot()->size();
    }
    return Status::Ok();
  }
  // IqsSystem::Induce, step by step.
  const uint64_t db_epoch = system.database().epoch();
  Result<iqs::RuleSet> rules = [&] {
    ScopedSpan span(spans, "induction.induce_all", request);
    return system.ils().InduceAll(config);
  }();
  if (!rules.ok()) return rules.status();
  if (rules_induced != nullptr) *rules_induced = rules->size();
  ScopedSpan span(spans, "dictionary.install", request);
  system.dictionary().SetInducedRules(std::move(rules).value(), db_epoch);
  return Status::Ok();
}

Result<WriteBatch> IdentityBatch(const iqs::Database& db,
                                 const std::string& relation, size_t size,
                                 iqs::SplitMix64& rng) {
  IQS_ASSIGN_OR_RETURN(const iqs::Relation* rel, db.Get(relation));
  std::vector<size_t> rows(rel->size());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  size = std::min(size, rows.size());
  WriteBatch batch;
  for (size_t i = 0; i < size; ++i) {  // partial Fisher-Yates
    std::swap(rows[i], rows[i + rng.Next() % (rows.size() - i)]);
    const iqs::Tuple& row = rel->rows()[rows[i]];
    batch.victims.push_back(row.at(0).AsString());
    batch.fresh.push_back(row);
  }
  return batch;
}

FleetChurner::FleetChurner(const iqs::Database& db, uint64_t seed,
                           size_t size)
    : rng_(seed), size_(size) {
  auto ships = db.Get("BATTLESHIP");
  if (!ships.ok()) return;
  for (const iqs::Tuple& row : (*ships)->rows()) {
    const std::string& id = row.at(0).AsString();
    live_ids_.push_back(id);
    const std::string& type = row.at(2).AsString();
    const int64_t displacement = row.at(4).AsInt();
    for (const iqs::FleetTypeSpec& spec : iqs::Table1Specs()) {
      if (type == spec.type && displacement != spec.displacement_lo &&
          displacement != spec.displacement_hi) {
        deletable_.push_back(Ship{id, &spec});
      }
    }
  }
}

WriteBatch FleetChurner::Next() {
  WriteBatch batch;
  std::unordered_set<std::string> doomed;
  std::vector<Ship> inserted;
  for (size_t i = 0; i < size_ && !deletable_.empty(); ++i) {
    const size_t pick = rng_.Next() % deletable_.size();
    Ship victim = deletable_[pick];
    deletable_[pick] = deletable_.back();
    deletable_.pop_back();
    const iqs::FleetTypeSpec& spec = *victim.spec;
    const int hull = next_hull_++;
    Ship fresh{std::string(spec.type) + std::to_string(hull), &spec};
    batch.fresh.push_back(iqs::Tuple(
        {iqs::Value::String(fresh.id),
         iqs::Value::String("Hull " + std::to_string(hull)),
         iqs::Value::String(spec.type), iqs::Value::String(spec.category),
         iqs::Value::Int(rng_.NextInRange(spec.displacement_lo,
                                          spec.displacement_hi))}));
    batch.victims.push_back(victim.id);
    doomed.insert(victim.id);
    live_ids_.push_back(fresh.id);
    inserted.push_back(std::move(fresh));
  }
  // Fresh ships become deletable only after this batch, so one batch
  // never deletes a row it is itself inserting.
  for (Ship& ship : inserted) deletable_.push_back(std::move(ship));
  live_ids_.erase(std::remove_if(live_ids_.begin(), live_ids_.end(),
                                 [&](const std::string& id) {
                                   return doomed.count(id) > 0;
                                 }),
                  live_ids_.end());
  return batch;
}

}  // namespace perfbench
