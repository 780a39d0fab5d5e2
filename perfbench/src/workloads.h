#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "span.h"
#include "testbed/fleet_generator.h"

// Inputs of the three workloads, all derived from the command-line seed,
// plus the set-up and write paths they drive through the IQS public API.
namespace perfbench {

enum class Workload { kAppendixCWire, kFleetMix, kFleetChurn };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

// Sizes of one run. `Full()` is what the benchmark measures; `Tiny()`
// is the smoke-test size.
struct Scale {
  size_t ships_per_type = 200;  // fleet: 12 types x 200 = 2,400 rows
  size_t fleet_batch = 24;      // rows deleted and inserted per write batch
  int setups = 11;              // set-ups per run; setup_s is their median
  int admin_cycles = 8;         // least write + induce cycles per admin phase
  int queries_per_cycle = 6;    // fleet_churn queries after each induction
  int probe_requests = 200;     // traced net / sqo probe sizes
  size_t population = 2048;     // fleet_mix queries, replayed in order

  static Scale Full() { return Scale{}; }
  static Scale Tiny() {
    return Scale{/*ships_per_type=*/10, /*fleet_batch=*/3, /*setups=*/1,
                 /*admin_cycles=*/2, /*queries_per_cycle=*/2,
                 /*probe_requests=*/10, /*population=*/64};
  }
};

// ---- appendix_c_wire ------------------------------------------------------

// The distinct queries of the Appendix C population: Examples 1-3, the
// golden ship queries, and literal variants over the testbed's domains
// (classes, displacement thresholds, sonars, sonar and ship types).
std::vector<std::string> AppendixCQueries();

// Zipf(1/2) picks over a seeded permutation of [0, n): a skewed working
// set whose hot end differs per seed, mild enough that no handful of
// queries sets the cost of the mix. Pickers sharing `order_seed` share the
// hot set; `pick_seed` gives each its own stream of picks.
class SkewedPicker {
 public:
  SkewedPicker(size_t n, uint64_t order_seed, uint64_t pick_seed);
  size_t Next();

 private:
  iqs::SplitMix64 rng_;
  std::vector<size_t> order_;
  std::vector<double> cumulative_;
};

// ---- fleet_mix / fleet_churn ----------------------------------------------

enum class FleetClass { kPoint, kNarrow, kRange, kEmpty, kJoin, kGroupBy };
constexpr int kFleetClassCount = 6;
const char* FleetClassName(FleetClass cls);

struct FleetQuery {
  FleetClass cls = FleetClass::kPoint;
  std::string sql;
};

// The six classes in equal shares: every block of six queries holds one
// of each, in seeded order. Literals are uniform over domains much larger
// than the 1,024-entry answer cache (displacements, bounds, widths, the
// live ship ids).
class FleetQueryGenerator {
 public:
  explicit FleetQueryGenerator(uint64_t seed) : rng_(seed) {}
  FleetQuery Next(const std::vector<std::string>& live_ids);

 private:
  iqs::SplitMix64 rng_;
  std::array<FleetClass, kFleetClassCount> classes_ = {
      FleetClass::kPoint, FleetClass::kNarrow, FleetClass::kRange,
      FleetClass::kEmpty, FleetClass::kJoin,   FleetClass::kGroupBy};
  int next_class_ = kFleetClassCount;
};

// ---- set-up -----------------------------------------------------------------

// Appendix C testbed with an index on CLASS(Displacement) and Nc = 3
// induction.
iqs::Result<std::unique_ptr<iqs::IqsSystem>> BuildAppendixC();

// GenerateFleet(ships_per_type, seed), an index on
// BATTLESHIP(Displacement), and Nc = 3 induction.
iqs::Result<std::unique_ptr<iqs::IqsSystem>> BuildFleet(size_t ships_per_type,
                                                        uint64_t seed);

// The relation each workload writes to, and the ship ids a point query
// may name.
const char* WriteRelation(Workload workload);
std::vector<std::string> ShipIds(const iqs::Database& db);

// ---- writes and induction -------------------------------------------------

// The rows one write batch deletes (by key, column 0) and inserts.
struct WriteBatch {
  std::vector<std::string> victims;
  std::vector<iqs::Tuple> fresh;
};

// Applies a write batch through the public API, as a caller must issue
// it: Database::GetMutable, Relation::DeleteWhere for the victims,
// Relation::Insert of the fresh rows, then Database::CreateIndex again
// for every index GetMutable dropped. Records "relational.write_batch"
// and "relational.create_index" spans when `spans` is set.
iqs::Status ApplyWriteBatch(iqs::Database& db, const std::string& relation,
                            const WriteBatch& batch, SpanRecorder* spans,
                            uint64_t request);

// One IqsSystem::Induce at Nc = 3. With a recorder, the call is made as
// its two layer steps (InductiveLearningSubsystem::InduceAll, then
// DataDictionary::SetInducedRules with the database epoch read first),
// spanned as "induction.induce_all" and "dictionary.install".
// `rules_induced` (optional) receives the rule count.
iqs::Status InduceRules(iqs::IqsSystem& system, SpanRecorder* spans,
                        uint64_t request, size_t* rules_induced);

// Identity batch for the read workloads: `size` seeded rows of
// `relation`, deleted and inserted again, so the data (and the rules
// induced from it) end as they began.
iqs::Result<WriteBatch> IdentityBatch(const iqs::Database& db,
                                      const std::string& relation,
                                      size_t size, iqs::SplitMix64& rng);

// The fleet_churn writer: each batch deletes `size` ships (never a row
// carrying its type's displacement endpoint, so the induced bands keep
// their shape) and inserts as many fresh ships of the same types with
// displacements inside their type's band.
class FleetChurner {
 public:
  FleetChurner(const iqs::Database& db, uint64_t seed, size_t size);
  WriteBatch Next();
  // Ship ids present once the last batch from Next() is applied.
  const std::vector<std::string>& live_ids() const { return live_ids_; }

 private:
  struct Ship {
    std::string id;
    const iqs::FleetTypeSpec* spec = nullptr;
  };
  iqs::SplitMix64 rng_;
  size_t size_;
  int next_hull_ = 10000;
  std::vector<Ship> deletable_;
  std::vector<std::string> live_ids_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
