#include "testing/derive_oracle.h"

#include <algorithm>
#include <string>
#include <vector>

namespace tpm {
namespace testing {

namespace {

bool SetsIntersect(const std::vector<std::string>& a,
                   const std::vector<std::string>& b) {
  for (const auto& key : a) {
    if (std::find(b.begin(), b.end(), key) != b.end()) return true;
  }
  return false;
}

}  // namespace

void DeriveConflictsAllPairs(const ServiceRegistry& registry,
                             ConflictSpec* spec) {
  std::vector<const ServiceDef*> services;
  for (ServiceId id : registry.AllIds()) {
    services.push_back(*registry.Lookup(id));
  }
  for (const ServiceDef* a : services) {
    if (a->effect_free) spec->MarkEffectFree(a->id);
    for (const ServiceDef* b : services) {
      if (b->id < a->id) continue;
      // Conflict iff one's writes intersect the other's reads or writes.
      const bool conflict = SetsIntersect(a->write_set, b->write_set) ||
                            SetsIntersect(a->write_set, b->read_set) ||
                            SetsIntersect(a->read_set, b->write_set);
      if (conflict) spec->AddConflict(a->id, b->id);
    }
  }
  for (const ServiceDef* def : services) {
    if (def->op_kind.empty()) continue;
    const int op = spec->RegisterOpKind(def->op_kind);
    spec->BindOp(def->id, op);
    if (!def->inverse_op_kind.empty()) {
      spec->SetInverseOp(op, spec->RegisterOpKind(def->inverse_op_kind));
    }
    for (const std::string& other : def->commutes_with) {
      spec->AddCommutingOps(op, spec->RegisterOpKind(other));
    }
  }
}

}  // namespace testing
}  // namespace tpm
