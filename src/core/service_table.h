#ifndef TPM_CORE_SERVICE_TABLE_H_
#define TPM_CORE_SERVICE_TABLE_H_

#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "core/conflict.h"

namespace tpm {

/// The services one analysis touches, interned into a dense local index in
/// order of first use, each with its conflict partners restricted to the
/// interned set. A schedule touches far fewer services than a spec may hold,
/// so analyses keep their side tables as flat vectors over this index and
/// never scan unrelated services. Reads the spec only through const,
/// cache-free accessors.
class ServiceTable {
 public:
  explicit ServiceTable(const ConflictSpec& spec);

  /// Local index of `service`, interning it on first use. A service the spec
  /// does not know conflicts with nothing.
  int Intern(ServiceId service);

  /// Local indices of the interned services conflicting with `local`
  /// (including `local` itself when it is self-conflicting).
  const std::vector<int>& PartnersOf(int local) const {
    return partners_[local];
  }
  bool IsEffectFree(int local) const { return effect_free_[local]; }
  size_t size() const { return partners_.size(); }

 private:
  const ConflictSpec& spec_;
  std::unordered_map<ServiceId, int> local_of_;
  /// Spec dense index -> local index, or -1 while not interned.
  std::vector<int> local_of_index_;
  std::vector<std::vector<int>> partners_;
  std::vector<bool> effect_free_;
};

}  // namespace tpm

#endif  // TPM_CORE_SERVICE_TABLE_H_
