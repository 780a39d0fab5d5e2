#ifndef IQS_RELATIONAL_VIRTUAL_RELATION_H_
#define IQS_RELATIONAL_VIRTUAL_RELATION_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "relational/relation.h"

namespace iqs {

// A provider of read-only virtual relations, materialized on every scan
// from live state (the `sys.*` introspection catalog, DESIGN.md §11).
// Providers are registered on a Database; the SQL executor (which QUEL
// lowers onto) consults the registry whenever a FROM name is not a
// stored relation.
//
// Contract:
//  - RelationNames() lists the full dotted names this provider serves
//    (e.g. "sys.metrics"). Names are matched case-insensitively.
//  - Materialize(name) builds a fresh Relation snapshot of the current
//    state. The returned relation's name must equal the requested name
//    (case preserved as registered) so qualification works unchanged.
//  - Materialize must be safe to call concurrently from query threads.
class VirtualRelationProvider {
 public:
  virtual ~VirtualRelationProvider() = default;

  virtual std::vector<std::string> RelationNames() const = 0;
  virtual Result<Relation> Materialize(const std::string& name) const = 0;
};

// The schema prefix reserved for virtual catalog relations. Stored
// relations may not be created under it (Database enforces this), which
// keeps `sys.*` names unambiguous forever.
inline constexpr char kSysSchemaPrefix[] = "sys.";

// True when `name` starts with the reserved prefix (case-insensitive).
bool IsSysRelationName(const std::string& name);

}  // namespace iqs

#endif  // IQS_RELATIONAL_VIRTUAL_RELATION_H_
