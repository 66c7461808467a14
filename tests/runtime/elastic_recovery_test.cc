// Elastic crash recovery: the migration WAL (MBEGIN/MCUT/MFLIP/MEND) must
// make quiesce-and-migrate atomic across a crash at EVERY crash point —
// after recovery the component is owned by exactly one shard, every shard
// WAL certifies (PRED + Proc-REC, CertifyRecovered), and the ADT
// invariants hold. Plus a seeded chaos soak of migration under concurrent
// producers with a restart per iteration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/str_util.h"
#include "log/recovery_log.h"
#include "runtime/sharded_runtime.h"
#include "testing/fault_injector.h"
#include "workload/sharded_world.h"

namespace tpm {
namespace {

std::vector<const ProcessDef*> MakeMix(ShardedWorld* world, int per_tenant) {
  std::vector<const ProcessDef*> defs;
  for (int round = 0; round < per_tenant; ++round) {
    for (int t = 0; t < world->num_tenants(); ++t) {
      defs.push_back(world->MakeOrderProcess(
          t, StrCat("order_t", t, "_", round)));
      defs.push_back(world->MakeConsumeProcess(
          t, StrCat("consume_t", t, "_", round)));
      defs.push_back(world->MakeRefillProcess(
          t, StrCat("refill_t", t, "_", round)));
    }
  }
  return defs;
}

std::string FreshWalDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "elastic_recovery_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

// Every kProcessBegin record must live in the WAL of the shard that owns
// the record's conflict component under the recovered router — i.e. a
// migrated component's history moved wholesale and exactly once.
void AssertSingleOwnership(ShardedRuntime* runtime,
                           const ShardedWorld& world) {
  auto defs_by_name = world.DefsByName();
  for (int s = 0; s < runtime->num_shards(); ++s) {
    RecoveryLog* log = runtime->shard_log(s);
    ASSERT_NE(log, nullptr);
    auto records = log->Records();
    ASSERT_TRUE(records.ok()) << records.status();
    for (const SchedulerLogRecord& record : *records) {
      if (record.kind != SchedulerLogRecord::Kind::kProcessBegin) continue;
      auto it = defs_by_name.find(record.def_name);
      ASSERT_NE(it, defs_by_name.end()) << record.def_name;
      const int component = runtime->router().ComponentOfDef(*it->second);
      EXPECT_EQ(runtime->router().ShardOfComponent(component), s)
          << "record for '" << record.def_name << "' (component "
          << component << ") stranded in shard " << s << "'s WAL";
    }
  }
}

// A completed migration is durable: the restart re-applies the routing
// override from the migration WAL, re-homes the component's subsystem
// registrations, and recovery verifies the moved history on its new shard.
TEST(ElasticRecoveryTest, CompletedMigrationSurvivesRestart) {
  const std::string wal_dir = FreshWalDir("restart");
  ShardedWorld world({.seed = 51, .num_tenants = 4});
  std::vector<const ProcessDef*> defs = MakeMix(&world, 2);
  ShardedRuntimeOptions options;
  options.num_shards = 2;
  options.mode = TickMode::kFreeRunning;
  options.log_mode = ShardLogMode::kFile;
  options.wal_dir = wal_dir;
  options.elastic.enabled = true;

  int component = -1;
  int to = -1;
  {
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    ASSERT_TRUE(runtime.Start().ok());
    for (const ProcessDef* def : defs) {
      ASSERT_TRUE(runtime.Submit(def).ok());
    }
    ASSERT_TRUE(runtime.Drain().ok());
    component =
        runtime.router().ComponentOfService(world.TenantServices(0)[0]);
    to = 1 - runtime.router().ShardOfComponent(component);
    ASSERT_TRUE(runtime.MigrateComponent(component, to).ok());
    // More traffic AFTER the move: the new owner's WAL gains records for
    // the migrated component that recovery must accept there.
    auto ticket = runtime.Submit(world.MakeOrderProcess(0, "order_moved"));
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(ticket->shard, to);
    ASSERT_TRUE(runtime.Drain().ok());
    ASSERT_TRUE(runtime.Stop().ok());
  }

  ShardedRuntime recovered(options);
  ASSERT_TRUE(world.RegisterAll(&recovered).ok());
  ASSERT_TRUE(recovered.Start().ok());
  // The override outlives the incarnation that wrote it.
  EXPECT_EQ(recovered.router().ShardOfComponent(component), to);
  ASSERT_TRUE(recovered.Recover(world.DefsByName()).ok());
  EXPECT_TRUE(recovered.migration_engine()->ever_migrated());

  auto ticket = recovered.Submit(world.MakeOrderProcess(0, "order_post"));
  ASSERT_TRUE(ticket.ok());
  EXPECT_EQ(ticket->shard, to);
  ASSERT_TRUE(recovered.Drain().ok());
  EXPECT_TRUE(ticket->Await().ok());
  ASSERT_TRUE(recovered.Stop().ok());
  AssertSingleOwnership(&recovered, world);
  EXPECT_TRUE(world.CheckAdtInvariants().ok());
  std::filesystem::remove_all(wal_dir);
}

// The tentpole sweep: crash the migration at every crash point (the
// migration WAL's own append/sync sites plus the explicit protocol sites
// between the cut, the import, the flip and the strip). Whatever the cut
// point, the second incarnation must land in exactly one of the two legal
// worlds — migration never happened (owner = from) or migration fully
// happened (owner = to) — with every shard WAL verifying and fresh traffic
// committing on the surviving owner.
TEST(ElasticRecoveryTest, KillAtEveryCrashPointRecoversSingleOwner) {
  constexpr int kTenants = 2;
  constexpr int kShards = 2;

  // Dry run: count the crash-point hits of one full migration.
  testing::FaultInjector counter;
  int64_t total_hits = 0;
  {
    const std::string wal_dir = FreshWalDir("sweep_dry");
    ShardedWorld world({.seed = 61, .num_tenants = kTenants});
    std::vector<const ProcessDef*> defs = MakeMix(&world, 2);
    ShardedRuntimeOptions options;
    options.num_shards = kShards;
    options.mode = TickMode::kFreeRunning;
    options.log_mode = ShardLogMode::kFile;
    options.wal_dir = wal_dir;
    options.elastic.enabled = true;
    options.elastic.crash_listener = &counter;
    ShardedRuntime runtime(options);
    ASSERT_TRUE(world.RegisterAll(&runtime).ok());
    ASSERT_TRUE(runtime.Start().ok());
    for (const ProcessDef* def : defs) {
      ASSERT_TRUE(runtime.Submit(def).ok());
    }
    ASSERT_TRUE(runtime.Drain().ok());
    const int component =
        runtime.router().ComponentOfService(world.TenantServices(0)[0]);
    const int to = 1 - runtime.router().ShardOfComponent(component);
    counter.ResetCounts();
    ASSERT_TRUE(runtime.MigrateComponent(component, to).ok());
    total_hits = counter.hits();
    ASSERT_TRUE(runtime.Stop().ok());
    std::filesystem::remove_all(wal_dir);
  }
  ASSERT_GT(total_hits, 0);

  for (int64_t crash_hit = 1; crash_hit <= total_hits; ++crash_hit) {
    SCOPED_TRACE(StrCat("crash_hit=", crash_hit, "/", total_hits));
    const std::string wal_dir =
        FreshWalDir(StrCat("sweep_", crash_hit));
    ShardedWorld world({.seed = 61, .num_tenants = kTenants});
    std::vector<const ProcessDef*> defs = MakeMix(&world, 2);
    ShardedRuntimeOptions options;
    options.num_shards = kShards;
    options.mode = TickMode::kFreeRunning;
    options.log_mode = ShardLogMode::kFile;
    options.wal_dir = wal_dir;
    options.elastic.enabled = true;

    int component = -1;
    int from = -1;
    int to = -1;
    bool crashed = false;
    {
      testing::FaultInjector injector;
      ShardedRuntimeOptions armed = options;
      armed.elastic.crash_listener = &injector;
      ShardedRuntime runtime(armed);
      ASSERT_TRUE(world.RegisterAll(&runtime).ok());
      ASSERT_TRUE(runtime.Start().ok());
      for (const ProcessDef* def : defs) {
        ASSERT_TRUE(runtime.Submit(def).ok());
      }
      ASSERT_TRUE(runtime.Drain().ok());
      component =
          runtime.router().ComponentOfService(world.TenantServices(0)[0]);
      from = runtime.router().ShardOfComponent(component);
      to = 1 - from;
      injector.ResetCounts();
      injector.ArmAt(crash_hit);
      Status status = runtime.MigrateComponent(component, to);
      crashed = injector.triggered();
      if (crashed) {
        EXPECT_FALSE(status.ok()) << "crash point swallowed";
      } else {
        EXPECT_TRUE(status.ok()) << status;
      }
      // Kill the incarnation where it stands (no Drain: a crashed engine
      // is sticky by design).
      ASSERT_TRUE(runtime.Stop().ok());
    }

    // Second incarnation over the same WALs: fix-ups + override replay.
    ShardedRuntime recovered(options);
    ASSERT_TRUE(world.RegisterAll(&recovered).ok());
    ASSERT_TRUE(recovered.Start().ok());
    ASSERT_TRUE(recovered.Recover(world.DefsByName()).ok());
    const int owner = recovered.router().ShardOfComponent(component);
    EXPECT_TRUE(owner == from || owner == to) << "owner=" << owner;

    // Fresh traffic for every tenant commits wherever the recovery landed
    // the components.
    std::vector<SubmitTicket> tickets;
    for (int t = 0; t < kTenants; ++t) {
      auto ticket = recovered.Submit(
          world.MakeOrderProcess(t, StrCat("post_order_t", t)));
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      if (t == 0) {
        EXPECT_EQ(ticket->shard, owner);
      }
      tickets.push_back(*ticket);
    }
    ASSERT_TRUE(recovered.Drain().ok());
    for (SubmitTicket& ticket : tickets) {
      EXPECT_TRUE(ticket.Await().ok());
    }
    RuntimeStats stats = recovered.Stats();
    // Terminal accounting: a durable MBEGIN resolves exactly once —
    // completed iff the decision record (MFLIP) survived, which is also
    // exactly when the override re-homed the component.
    EXPECT_LE(stats.migrations_completed + stats.migrations_aborted, 1);
    EXPECT_EQ(stats.migrations_completed, owner == to ? 1 : 0);
    ASSERT_TRUE(recovered.Stop().ok());
    AssertSingleOwnership(&recovered, world);
    EXPECT_TRUE(world.CheckAdtInvariants().ok());
    std::filesystem::remove_all(wal_dir);
  }
}

// ---------------------------------------------------------------------------
// Seeded chaos soak: migration under concurrent producers, then a full
// restart + recovery per iteration. Fresh seeds per run; override via
// TPM_ELASTIC_SEED_BASE / TPM_ELASTIC_SOAK_ITERS in CI.

TEST(ElasticSoakTest, MigrationUnderConcurrentProducersThenRecovery) {
  const char* base_env = std::getenv("TPM_ELASTIC_SEED_BASE");
  const char* iters_env = std::getenv("TPM_ELASTIC_SOAK_ITERS");
  const uint64_t seed_base =
      base_env != nullptr ? std::strtoull(base_env, nullptr, 10) : 7777;
  const int iterations = iters_env != nullptr ? std::atoi(iters_env) : 2;
  constexpr int kTenants = 4;
  constexpr int kShards = 2;

  for (int iter = 0; iter < iterations; ++iter) {
    const uint64_t seed = seed_base + static_cast<uint64_t>(iter);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const std::string wal_dir = FreshWalDir(StrCat("soak_", iter));
    ShardedWorld world({.seed = seed, .num_tenants = kTenants});
    std::vector<const ProcessDef*> defs = MakeMix(&world, 4);
    ShardedRuntimeOptions options;
    options.num_shards = kShards;
    options.mode = TickMode::kFreeRunning;
    options.log_mode = ShardLogMode::kFile;
    options.wal_dir = wal_dir;
    options.elastic.enabled = true;

    const int victim_tenant = static_cast<int>(seed % kTenants);
    {
      ShardedRuntime runtime(options);
      ASSERT_TRUE(world.RegisterAll(&runtime).ok());
      ASSERT_TRUE(runtime.Start().ok());
      const int component = runtime.router().ComponentOfService(
          world.TenantServices(victim_tenant)[0]);
      const int to = 1 - runtime.router().ShardOfComponent(component);

      constexpr int kProducers = 3;
      std::atomic<size_t> next{0};
      std::atomic<int> failures{0};
      std::vector<std::thread> producers;
      for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&] {
          for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= defs.size()) break;
            auto ticket = runtime.Submit(defs[i]);
            if (!ticket.ok() || !ticket->Await().ok()) {
              failures.fetch_add(1);
            }
          }
        });
      }
      // Migrate the victim component mid-traffic.
      while (next.load() < defs.size() / 2) std::this_thread::yield();
      ASSERT_TRUE(runtime.MigrateComponent(component, to).ok());
      for (auto& t : producers) t.join();
      ASSERT_TRUE(runtime.Drain().ok());
      RuntimeStats stats = runtime.Stats();
      EXPECT_EQ(failures.load(), 0);
      EXPECT_EQ(stats.migrations_completed, 1);
      EXPECT_EQ(
          stats.merged.processes_committed + stats.merged.processes_aborted,
          static_cast<int64_t>(defs.size()));
      EXPECT_EQ(runtime.router().ShardOfComponent(component), to);
      ASSERT_TRUE(runtime.Stop().ok());
      EXPECT_TRUE(world.CheckAdtInvariants().ok());
    }

    // Restart: the override and the moved history both recover.
    ShardedRuntime recovered(options);
    ASSERT_TRUE(world.RegisterAll(&recovered).ok());
    Status started = recovered.Start();
    ASSERT_TRUE(started.ok()) << started;
    Status recovery = recovered.Recover(world.DefsByName());
    ASSERT_TRUE(recovery.ok()) << recovery;
    std::vector<SubmitTicket> tickets;
    for (int t = 0; t < kTenants; ++t) {
      auto ticket = recovered.Submit(world.MakeOrderProcess(
          t, StrCat("post_order_t", t, "_", iter)));
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      tickets.push_back(*ticket);
    }
    ASSERT_TRUE(recovered.Drain().ok());
    for (SubmitTicket& ticket : tickets) {
      EXPECT_TRUE(ticket.Await().ok());
    }
    ASSERT_TRUE(recovered.Stop().ok());
    AssertSingleOwnership(&recovered, world);
    EXPECT_TRUE(world.CheckAdtInvariants().ok());

    if (::testing::Test::HasFailure()) {
      // Keep the WAL directory around for post-mortem.
      std::string path = testing::WriteFailingSeed(
          "elastic_migration_soak", iter, "ElasticSoakTest",
          StrCat("TPM_ELASTIC_SEED_BASE=", seed,
                 " TPM_ELASTIC_SOAK_ITERS=1 ctest -R ElasticSoak; wal_dir=",
                 wal_dir));
      std::cerr << "soak failed at seed " << seed
                << "; reproducer written to " << path << "\n";
      break;
    }
    std::filesystem::remove_all(wal_dir);
  }
}

}  // namespace
}  // namespace tpm
