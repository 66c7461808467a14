#include "core/service_table.h"

namespace tpm {

ServiceTable::ServiceTable(const ConflictSpec& spec)
    : spec_(spec), local_of_index_(spec.NumServices(), -1) {}

int ServiceTable::Intern(ServiceId service) {
  auto [it, inserted] =
      local_of_.emplace(service, static_cast<int>(partners_.size()));
  if (!inserted) return it->second;
  const int local = it->second;
  partners_.emplace_back();
  effect_free_.push_back(spec_.IsEffectFreeService(service));
  const int index = spec_.IndexOf(service);
  if (index < 0) return local;
  local_of_index_[index] = local;
  for (int partner_index : spec_.PartnerIndicesOf(index)) {
    const int partner = local_of_index_[partner_index];
    if (partner < 0) continue;  // linked when the partner is interned
    partners_[local].push_back(partner);
    if (partner != local) partners_[partner].push_back(local);
  }
  return local;
}

}  // namespace tpm
