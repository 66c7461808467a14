#include "subsystem/service.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "common/rng.h"
#include "common/str_util.h"

namespace tpm {

int64_t RetryPolicy::BackoffTicks(int attempt, Rng* rng) const {
  if (backoff_base_ticks <= 0 || attempt <= 0) return 0;
  int64_t ticks;
  if (exponential) {
    ticks = backoff_base_ticks;
    for (int i = 1; i < attempt; ++i) {
      if (ticks > std::numeric_limits<int64_t>::max() / 2) break;
      ticks *= 2;
    }
  } else {
    ticks = backoff_base_ticks * attempt;
  }
  if (max_backoff_ticks > 0 && ticks > max_backoff_ticks) {
    ticks = max_backoff_ticks;
  }
  if (full_jitter && rng != nullptr) {
    ticks = rng->NextInRange(0, ticks);
  }
  return ticks;
}

Status ServiceRegistry::Register(ServiceDef def) {
  if (!def.id.valid()) {
    return Status::InvalidArgument("service id invalid");
  }
  if (def.body == nullptr) {
    return Status::InvalidArgument(StrCat("service ", def.name, " lacks a body"));
  }
  if (services_.count(def.id) > 0) {
    return Status::AlreadyExists(StrCat("service ", def.id, " already registered"));
  }
  services_.emplace(def.id, std::move(def));
  return Status::OK();
}

Result<const ServiceDef*> ServiceRegistry::Lookup(ServiceId id) const {
  auto it = services_.find(id);
  if (it == services_.end()) {
    return Status::NotFound(StrCat("unknown service ", id));
  }
  return &it->second;
}

std::vector<ServiceId> ServiceRegistry::AllIds() const {
  std::vector<ServiceId> ids;
  ids.reserve(services_.size());
  for (const auto& [id, def] : services_) ids.push_back(id);
  return ids;
}

namespace {

/// The services that read and that write one key, each in ascending id
/// order without duplicates.
struct KeyUsers {
  std::vector<ServiceId> readers;
  std::vector<ServiceId> writers;
};

void AppendOnce(std::vector<ServiceId>* users, ServiceId id) {
  if (users->empty() || users->back() != id) users->push_back(id);
}

/// Appends the members of `users` (ascending) that are >= `from`.
void AppendFrom(const std::vector<ServiceId>& users, ServiceId from,
                std::vector<ServiceId>* out) {
  out->insert(out->end(), std::lower_bound(users.begin(), users.end(), from),
              users.end());
}

}  // namespace

void ServiceRegistry::DeriveConflicts(ConflictSpec* spec) const {
  // Conflict iff one's writes intersect the other's reads or writes, so
  // every conflicting pair shares a key: index the keys once, then each
  // service meets only the services that share a key with it.
  std::unordered_map<std::string_view, KeyUsers> users_of;
  for (const auto& [id, def] : services_) {
    for (const auto& key : def.read_set) {
      AppendOnce(&users_of[key].readers, id);
    }
    for (const auto& key : def.write_set) {
      AppendOnce(&users_of[key].writers, id);
    }
  }
  // Same call sequence as comparing every pair (a, b >= a) in id order, so
  // the spec's dense order and partner lists do not depend on the index.
  std::vector<ServiceId> partners;
  for (const auto& [id_a, a] : services_) {
    if (a.effect_free) spec->MarkEffectFree(id_a);
    partners.clear();
    for (const auto& key : a.write_set) {
      const KeyUsers& users = users_of.at(key);
      AppendFrom(users.writers, id_a, &partners);
      AppendFrom(users.readers, id_a, &partners);
    }
    for (const auto& key : a.read_set) {
      AppendFrom(users_of.at(key).writers, id_a, &partners);
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    for (ServiceId id_b : partners) spec->AddConflict(id_a, id_b);
  }
  // Op-kind metadata: bind services to interned op kinds and declare the
  // commuting pairs / inverse pairings, downgrading the conservative
  // read/write conflicts where the ADT semantics admit more concurrency.
  for (const auto& [id, def] : services_) {
    if (def.op_kind.empty()) continue;
    const int op = spec->RegisterOpKind(def.op_kind);
    spec->BindOp(id, op);
    if (!def.inverse_op_kind.empty()) {
      spec->SetInverseOp(op, spec->RegisterOpKind(def.inverse_op_kind));
    }
    for (const std::string& other : def.commutes_with) {
      spec->AddCommutingOps(op, spec->RegisterOpKind(other));
    }
  }
}

ServiceDef MakePutService(ServiceId id, std::string name, std::string key) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.write_set = {key};
  def.body = [key](KvStore* store, const ServiceRequest& request,
                   int64_t* ret) {
    *ret = store->Get(key);
    store->Put(key, request.param);
    return Status::OK();
  };
  return def;
}

namespace {

ServiceDef MakeDeltaService(ServiceId id, std::string name, std::string key,
                            int64_t sign) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.write_set = {key};
  def.body = [key, sign](KvStore* store, const ServiceRequest& request,
                         int64_t* ret) {
    const int64_t amount = request.param == 0 ? 1 : request.param;
    store->Add(key, sign * amount);
    *ret = store->Get(key);
    return Status::OK();
  };
  return def;
}

}  // namespace

ServiceDef MakeAddService(ServiceId id, std::string name, std::string key) {
  return MakeDeltaService(id, std::move(name), std::move(key), +1);
}

ServiceDef MakeSubService(ServiceId id, std::string name, std::string key) {
  return MakeDeltaService(id, std::move(name), std::move(key), -1);
}

ServiceDef MakeReadService(ServiceId id, std::string name, std::string key) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.effect_free = true;
  def.body = [key](KvStore* store, const ServiceRequest& request,
                   int64_t* ret) {
    (void)request;
    *ret = store->Get(key);
    return Status::OK();
  };
  return def;
}

ServiceDef MakeEraseService(ServiceId id, std::string name, std::string key) {
  ServiceDef def;
  def.id = id;
  def.name = std::move(name);
  def.read_set = {key};
  def.write_set = {key};
  def.body = [key](KvStore* store, const ServiceRequest& request,
                   int64_t* ret) {
    (void)request;
    *ret = store->Get(key);
    store->Erase(key);
    return Status::OK();
  };
  return def;
}

}  // namespace tpm
