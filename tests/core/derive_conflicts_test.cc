// Equivalence of the key-indexed ServiceRegistry::DeriveConflicts with the
// all-pairs derivation it replaced (testing::DeriveConflictsAllPairs): the
// two must build the same ConflictSpec — the same pairs and pair count, the
// same dense service order, the same partner-list order, effect-free marks
// and op table — on seeded random registries, on every workload world, on
// the bound example worlds, and when several registries derive into one
// spec. The spec's sparse bitset rows are checked against a plain pair set.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/conflict.h"
#include "core/process_dsl.h"
#include "subsystem/service.h"
#include "testing/derive_oracle.h"
#include "workload/cim_workload.h"
#include "workload/dsl_binding.h"
#include "workload/fault_workload.h"
#include "workload/semantic_world.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

void ExpectSameSpec(const ConflictSpec& want, const ConflictSpec& got,
                    const std::string& where) {
  EXPECT_EQ(want.ConflictPairs(), got.ConflictPairs()) << where;
  EXPECT_EQ(want.num_conflict_pairs(), got.num_conflict_pairs()) << where;
  ASSERT_EQ(want.NumServices(), got.NumServices()) << where;
  for (size_t i = 0; i < want.NumServices(); ++i) {
    const ServiceId service = want.ServiceAt(i);
    ASSERT_EQ(service, got.ServiceAt(i)) << where << ": dense index " << i;
    EXPECT_EQ(want.IsEffectFreeService(service),
              got.IsEffectFreeService(service))
        << where << ": service " << service;
    EXPECT_EQ(want.OpOf(service), got.OpOf(service))
        << where << ": service " << service;
    EXPECT_EQ(want.PartnersOf(service), got.PartnersOf(service))
        << where << ": partners of service " << service;
  }
  EXPECT_EQ(want.CommutingOpPairs(), got.CommutingOpPairs()) << where;
}

void ExpectSameDerivation(const std::vector<const ServiceRegistry*>& registries,
                          const std::string& where) {
  ConflictSpec want;
  ConflictSpec got;
  for (const ServiceRegistry* registry : registries) {
    testing::DeriveConflictsAllPairs(*registry, &want);
    registry->DeriveConflicts(&got);
  }
  ExpectSameSpec(want, got, where);
}

// What the random sweep reached, so each case the derivation must handle
// shows up at least once.
struct Coverage {
  int key_repeated_in_one_set = 0;
  int key_read_and_written = 0;
  int read_only = 0;
  int empty_sets = 0;
  int effect_free = 0;
  int hot_key_registries = 0;
};

Status NoopBody(KvStore*, const ServiceRequest&, int64_t* ret) {
  *ret = 0;
  return Status::OK();
}

std::vector<std::string> DrawKeys(Rng* rng, int keys, int hot_keys,
                                  const std::string& prefix) {
  std::vector<std::string> set;
  const int size = static_cast<int>(rng->NextBounded(4));
  for (int i = 0; i < size; ++i) {
    // One key in three is drawn from a small hot pool that many services
    // share; the rest spread over the whole pool.
    const int key = rng->NextBool(0.33)
                        ? static_cast<int>(rng->NextBounded(hot_keys))
                        : static_cast<int>(rng->NextBounded(keys));
    set.push_back(StrCat(prefix, key));
  }
  return set;
}

// A registry of up to 60 services with sparse, shuffled ids over a pool of
// 1-12 keys. Sets may repeat a key, share one with the other set, or be
// empty; some services are effect-free or bound to an op kind.
std::unique_ptr<ServiceRegistry> RandomRegistry(Rng* rng,
                                                const std::string& prefix,
                                                Coverage* coverage) {
  auto registry = std::make_unique<ServiceRegistry>();
  const int services = 1 + static_cast<int>(rng->NextBounded(60));
  const int keys = 1 + static_cast<int>(rng->NextBounded(12));
  const int hot_keys = 1 + static_cast<int>(rng->NextBounded(2));
  std::vector<int64_t> ids;
  for (int i = 0; i < services; ++i) {
    ids.push_back(1 + i * 3 + static_cast<int64_t>(rng->NextBounded(3)));
  }
  rng->Shuffle(&ids);  // registration order must not matter
  const char* const ops[] = {"op.a", "op.b", "op.c"};
  std::vector<int> users_of_key(static_cast<size_t>(keys), 0);
  for (int64_t id : ids) {
    ServiceDef def;
    def.id = ServiceId(id);
    def.name = StrCat(prefix, "svc", id);
    def.body = NoopBody;
    def.read_set = DrawKeys(rng, keys, hot_keys, prefix);
    def.write_set = DrawKeys(rng, keys, hot_keys, prefix);
    if (!def.write_set.empty() && rng->NextBool(0.2)) {
      def.read_set.push_back(def.write_set.front());
    }
    def.effect_free = rng->NextBool(0.15);
    if (rng->NextBool(0.3)) {
      def.op_kind = ops[rng->NextBounded(3)];
      def.commutes_with.push_back(ops[rng->NextBounded(3)]);
      if (rng->NextBool(0.5)) def.inverse_op_kind = ops[rng->NextBounded(3)];
    }

    for (const auto* set : {&def.read_set, &def.write_set}) {
      for (size_t i = 0; i < set->size(); ++i) {
        for (size_t j = i + 1; j < set->size(); ++j) {
          if ((*set)[i] == (*set)[j]) ++coverage->key_repeated_in_one_set;
        }
      }
    }
    for (const auto& key : def.read_set) {
      for (const auto& written : def.write_set) {
        if (key == written) ++coverage->key_read_and_written;
      }
    }
    if (def.write_set.empty() && !def.read_set.empty()) ++coverage->read_only;
    if (def.read_set.empty() && def.write_set.empty()) ++coverage->empty_sets;
    if (def.effect_free) ++coverage->effect_free;
    for (int k = 0; k < keys; ++k) {
      const std::string key = StrCat(prefix, k);
      bool uses = false;
      for (const auto* set : {&def.read_set, &def.write_set}) {
        for (const auto& used : *set) uses = uses || used == key;
      }
      if (uses) ++users_of_key[static_cast<size_t>(k)];
    }
    EXPECT_TRUE(registry->Register(std::move(def)).ok());
  }
  for (int users : users_of_key) {
    if (users >= 10) {
      ++coverage->hot_key_registries;
      break;
    }
  }
  return registry;
}

// The bitset rows span only their partners' words, so a row may have to
// grow at either end. Dense indices are shuffled and pairs arrive in random
// order, far apart and close together, self-pairs included; the relation
// must equal the set of declared pairs.
TEST(ConflictRowsTest, MatchADeclaredPairSetInAnyInsertionOrder) {
  constexpr int kServices = 400;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<int64_t> ids;
    for (int i = 0; i < kServices; ++i) ids.push_back(i);
    rng.Shuffle(&ids);
    ConflictSpec spec;
    for (int64_t id : ids) spec.RegisterService(ServiceId(id));
    std::set<std::pair<int64_t, int64_t>> declared;
    for (int i = 0; i < 600; ++i) {
      const auto a = static_cast<int64_t>(rng.NextBounded(kServices));
      const auto b = rng.NextBool(0.1)
                         ? a
                         : static_cast<int64_t>(rng.NextBounded(kServices));
      spec.AddConflict(ServiceId(a), ServiceId(b));
      declared.insert(std::minmax(a, b));
    }
    EXPECT_EQ(spec.num_conflict_pairs(), declared.size()) << "seed " << seed;
    for (int64_t a = 0; a < kServices; ++a) {
      for (int64_t b = 0; b < kServices; ++b) {
        ASSERT_EQ(spec.ServicesConflict(ServiceId(a), ServiceId(b)),
                  declared.count(std::minmax(a, b)) > 0)
            << "seed " << seed << ": " << a << ", " << b;
      }
    }
  }
}

TEST(DeriveConflictsTest, MatchesAllPairsOnRandomRegistries) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    auto registry = RandomRegistry(&rng, "k", &coverage);
    ExpectSameDerivation({registry.get()}, StrCat("seed ", seed));
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(coverage.key_repeated_in_one_set, 0);
  EXPECT_GT(coverage.key_read_and_written, 0);
  EXPECT_GT(coverage.read_only, 0);
  EXPECT_GT(coverage.empty_sets, 0);
  EXPECT_GT(coverage.effect_free, 0);
  EXPECT_GT(coverage.hot_key_registries, 0);
}

// The union spec of ShardedRuntime::Start: several registries derive into
// one spec. Half the seeds reuse key names across registries, which must
// still not relate services of different registries.
TEST(DeriveConflictsTest, MatchesAllPairsWhenRegistriesShareOneSpec) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    std::vector<std::unique_ptr<ServiceRegistry>> owned;
    std::vector<const ServiceRegistry*> registries;
    const int count = 2 + static_cast<int>(rng.NextBounded(3));
    for (int r = 0; r < count; ++r) {
      const std::string prefix = seed % 2 == 0 ? "k" : StrCat("r", r, "k");
      owned.push_back(RandomRegistry(&rng, prefix, &coverage));
      registries.push_back(owned.back().get());
    }
    ExpectSameDerivation(registries, StrCat("seed ", seed));
    if (::testing::Test::HasFailure()) return;
  }
}

// A read-only service conflicts with nobody it only shares reads with, not
// even itself, and is interned only if something else brings it in.
TEST(DeriveConflictsTest, ReadOnlyServicesDoNotConflictWithThemselves) {
  ServiceRegistry registry;
  ASSERT_TRUE(registry.Register(MakeReadService(ServiceId(1), "r1", "x")).ok());
  ASSERT_TRUE(registry.Register(MakeReadService(ServiceId(2), "r2", "x")).ok());
  ASSERT_TRUE(registry.Register(MakePutService(ServiceId(3), "w", "y")).ok());
  ConflictSpec spec;
  registry.DeriveConflicts(&spec);
  EXPECT_FALSE(spec.ServicesConflict(ServiceId(1), ServiceId(1)));
  EXPECT_FALSE(spec.ServicesConflict(ServiceId(1), ServiceId(2)));
  EXPECT_TRUE(spec.ServicesConflict(ServiceId(3), ServiceId(3)));
  EXPECT_TRUE(spec.IsEffectFreeService(ServiceId(1)));
  ExpectSameDerivation({&registry}, "read-only");
}

// The perfbench `restart` catalog: two tenants, 250 variants of each of
// the three process shapes, ~5k services over six registries.
TEST(DeriveConflictsTest, MatchesAllPairsOnRestartSizedShardedWorld) {
  ShardedWorld world({.seed = 7, .num_tenants = 2});
  for (int t = 0; t < world.num_tenants(); ++t) {
    for (int v = 0; v < 250; ++v) {
      ASSERT_NE(world.MakeOrderProcess(t, StrCat("order_t", t, "_", v), v),
                nullptr);
      ASSERT_NE(world.MakeConsumeProcess(t, StrCat("consume_t", t, "_", v), v),
                nullptr);
      ASSERT_NE(world.MakeRefillProcess(t, StrCat("refill_t", t, "_", v), v),
                nullptr);
    }
  }
  std::vector<const ServiceRegistry*> registries;
  size_t services = 0;
  for (int t = 0; t < world.num_tenants(); ++t) {
    for (const Subsystem* subsystem :
         {static_cast<const Subsystem*>(world.kv(t)),
          static_cast<const Subsystem*>(world.escrow(t)),
          static_cast<const Subsystem*>(world.queue(t))}) {
      registries.push_back(&subsystem->services());
      services += subsystem->services().AllIds().size();
    }
  }
  EXPECT_GE(services, 4000u);
  ExpectSameDerivation(registries, "restart catalog");
}

TEST(DeriveConflictsTest, MatchesAllPairsOnSemanticWorld) {
  SemanticWorldOptions options;
  options.seed = 3;
  SemanticWorld world(options);
  for (int i = 0; i < 8; ++i) {
    ASSERT_NE(world.MakeOrderProcess(StrCat("order", i), i), nullptr);
    ASSERT_NE(world.MakeConsumeProcess(StrCat("consume", i), i), nullptr);
    ASSERT_NE(world.MakeRefillProcess(StrCat("refill", i), i), nullptr);
  }
  ExpectSameDerivation({&world.kv()->services(), &world.escrow()->services(),
                        &world.queue()->services()},
                       "semantic world");
}

TEST(DeriveConflictsTest, MatchesAllPairsOnFaultDomainWorld) {
  FaultDomainOptions options;
  options.seed = 5;
  FaultDomainWorld world(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(world.MakeAlternativeProcess(StrCat("alt", i), i % 3,
                                           (i + 1) % 3, (i + 2) % 3, i),
              nullptr);
    ASSERT_NE(world.MakeChainProcess(StrCat("chain", i), i % 3, 3, i), nullptr);
  }
  std::vector<const ServiceRegistry*> registries;
  for (int i = 0; i < world.num_subsystems(); ++i) {
    registries.push_back(&world.raw(i)->services());
  }
  ExpectSameDerivation(registries, "fault-domain world");
}

TEST(DeriveConflictsTest, MatchesAllPairsOnCimWorld) {
  CimWorld world;
  std::vector<const ServiceRegistry*> registries;
  for (const KvSubsystem* subsystem : world.subsystems()) {
    registries.push_back(&subsystem->services());
  }
  ExpectSameDerivation(registries, "CIM world");
}

TEST(DeriveConflictsTest, MatchesAllPairsOnBoundExampleWorlds) {
  int bound = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(TPM_EXAMPLE_WORLDS_DIR)) {
    if (entry.path().extension() != ".tpm") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto world = ParseWorld(text.str());
    ASSERT_TRUE(world.ok()) << entry.path() << ": " << world.status();
    auto binding = BoundWorld::Bind(world->get());
    ASSERT_TRUE(binding.ok()) << entry.path() << ": " << binding.status();
    ExpectSameDerivation({&(*binding)->subsystem()->services()},
                         entry.path().string());
    ++bound;
  }
  EXPECT_GE(bound, 5);
}

}  // namespace
}  // namespace tpm
