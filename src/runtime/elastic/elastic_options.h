#ifndef TPM_RUNTIME_ELASTIC_ELASTIC_OPTIONS_H_
#define TPM_RUNTIME_ELASTIC_ELASTIC_OPTIONS_H_

#include <cstddef>
#include <cstdint>

#include "log/storage_backend.h"

namespace tpm {

/// Knobs of the adaptive controller (ElasticPolicy + ElasticController).
/// The policy is deliberately hysteretic: an imbalance must SUSTAIN for
/// `sustain_polls` consecutive polls before it triggers a migration, and a
/// completed migration starts a cooldown during which no further migration
/// fires — both inherited from consolidation-style OS schedulers, where
/// reacting to a one-poll spike just thrashes state back and forth.
struct ElasticPolicyOptions {
  /// Run the background controller thread (rebalancing + parking). Off,
  /// the elastic runtime is manual-only: MigrateComponent / ParkShard /
  /// ResumeShard still work, nothing happens on its own.
  bool enabled = false;
  /// Rebalance when max(shard busy) / mean(active shard busy) reaches
  /// this ratio.
  double imbalance_ratio = 2.0;
  /// Consecutive breaching polls before a migration fires.
  int sustain_polls = 3;
  /// Polls after a migration during which no further migration fires.
  int cooldown_polls = 10;
  /// Controller poll period.
  int poll_interval_ms = 20;
  /// DPM-style idle parking: park a shard that owns no conflict
  /// components and has been near-idle (busy fraction below
  /// `park_busy_threshold`, empty queue) — its worker then blocks instead
  /// of spinning, and resumes on the first routed submission.
  bool park_idle_shards = true;
  double park_busy_threshold = 0.05;
  /// Never park below this many running shards.
  int min_active_shards = 1;
  /// Shrink path: when EVERY active shard's busy fraction is below this,
  /// consolidate — migrate the least-loaded donor's components onto other
  /// active shards so the emptied shard parks on a later poll. 0 disables
  /// consolidation.
  double consolidate_below = 0.0;
};

/// Configuration of the elastic runtime layer (ShardedRuntimeOptions::
/// elastic). Off by default: the runtime then contains no probe, no
/// monitor, no engine — the exact pre-elastic hot path.
struct ElasticOptions {
  /// Master switch: install the per-shard probes, the load monitor and
  /// the migration engine. Required for MigrateComponent / ParkShard.
  /// Mutually exclusive with replication; auto-rebalancing
  /// (policy.enabled) additionally requires free-running shards.
  bool enabled = false;
  /// Pack the initial conflict partition onto this many shards; the
  /// remaining (num_shards - initial_active_shards) shards start with no
  /// components and are parked immediately — pre-allocated grow capacity.
  /// 0 = pack across all shards (no spares).
  int initial_active_shards = 0;
  /// The adaptive controller.
  ElasticPolicyOptions policy;
  /// Fault injection over the migration WAL and the engine's explicit
  /// protocol steps (sites "elastic/append|sync|synced|replace|replaced"
  /// from the WAL plus "elastic/quiesced|import|imported|strip|stripped|
  /// flipped" around the cross-log surgery).
  CrashPointListener* crash_listener = nullptr;
};

}  // namespace tpm

#endif  // TPM_RUNTIME_ELASTIC_ELASTIC_OPTIONS_H_
