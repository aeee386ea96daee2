// The fault-tolerant training runtime: deterministic injection replay,
// comm retry semantics, the TransientError/CheckError split, allocation-
// failure cleanup, checkpoint/restore bitwise resume, the numerics-guard
// degradation ladder, and the chaos property — a run peppered with
// transient comm failures, one NaN-corrupted payload and one injected
// straggler must converge to bitwise-identical losses vs the fault-free
// run. The chaos seed is randomized by CI (MPIPE_CHAOS_SEED) and logged,
// so any failure replays locally from the printed seed.

#include <gtest/gtest.h>

#include "common/check.h"

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fault_injection.h"
#include "mem/buffer_pool.h"
#include "mem/device_allocator.h"
#include "runtime/checkpoint.h"
#include "runtime/trainer.h"
#include "sim/cluster.h"

namespace mpipe {
namespace {

// ---- injector decision layer ----------------------------------------------

TEST(FaultInjector, DecisionsReplayBitExactFromSeed) {
  FaultInjectionConfig cfg;
  cfg.seed = 99;
  cfg.comm_failure_prob = 0.5;
  cfg.straggler_prob = 0.3;
  cfg.straggler_delay_seconds = 0.0;  // decisions only, no sleeping
  cfg.alloc_failure_prob = 0.25;
  cfg.corrupt_payload_prob = 0.5;
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  for (std::uint64_t key = 0; key < 64; ++key) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      EXPECT_EQ(a.should_fail_comm(key, attempt),
                b.should_fail_comm(key, attempt))
          << "key " << key << " attempt " << attempt;
    }
    EXPECT_EQ(a.straggler_delay(key), b.straggler_delay(key)) << key;
    EXPECT_EQ(a.should_fail_alloc(key), b.should_fail_alloc(key)) << key;
    EXPECT_EQ(a.corrupt_index(key, 1000, "A2A"),
              b.corrupt_index(key, 1000, "A2A"))
        << key;
  }
  EXPECT_GT(a.stats().total_faults(), 0u);
  EXPECT_EQ(a.stats().total_faults(), b.stats().total_faults());
}

TEST(FaultInjector, BudgetsCapFiredFaultsExactly) {
  FaultInjectionConfig cfg;
  cfg.comm_failure_prob = 1.0;
  cfg.max_comm_failures = 3;
  FaultInjector inj(cfg);
  int fired = 0;
  for (std::uint64_t k = 0; k < 100; ++k) {
    if (inj.should_fail_comm(k, 0)) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(inj.stats().comm_failures, 3u);
}

TEST(FaultInjector, ZeroProbabilityNeverFires) {
  FaultInjector inj(FaultInjectionConfig{});  // all-default: everything off
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_FALSE(inj.should_fail_comm(k, 0));
    EXPECT_EQ(inj.straggler_delay(k), 0.0);
    EXPECT_FALSE(inj.should_fail_alloc(k));
    EXPECT_EQ(inj.corrupt_index(k, 64, "A2A"), -1);
  }
  EXPECT_EQ(inj.stats().total_faults(), 0u);
}

// ---- comm retry semantics --------------------------------------------------

TEST(FaultInjector, CorruptLabelFilterGatesEligibility) {
  FaultInjectionConfig cfg;
  cfg.corrupt_payload_prob = 1.0;
  cfg.max_corruptions = -1;
  cfg.corrupt_label_filter = "R";
  FaultInjector inj(cfg);
  // Dispatch / gradient-dispatch ops never match; combines always do.
  EXPECT_EQ(inj.corrupt_index(0, 64, "S0"), -1);
  EXPECT_EQ(inj.corrupt_index(1, 64, "S'1"), -1);
  EXPECT_EQ(inj.corrupt_index(2, 64, "Sr0"), -1);
  EXPECT_GE(inj.corrupt_index(3, 64, "R0"), 0);
  EXPECT_GE(inj.corrupt_index(4, 64, "R'1"), 0);
  EXPECT_EQ(inj.stats().corruptions, 2u) << "filtered ops spend no budget";
}

TEST(FaultInjection, GuardedCommRetriesInjectedTransient) {
  FaultInjectionConfig cfg;
  cfg.comm_failure_prob = 1.0;
  cfg.max_comm_failures = 1;  // first attempt fails, retry must succeed
  cfg.retry.backoff_seconds = 1e-6;
  FaultInjector inj(cfg);
  int runs = 0;
  run_comm_guarded(&inj, inj.reserve_key(), [&] { ++runs; });
  EXPECT_EQ(runs, 1) << "body must run exactly once after the retry";
  EXPECT_EQ(inj.stats().comm_failures, 1u);
  EXPECT_EQ(inj.stats().comm_retries, 1u);
  EXPECT_EQ(inj.stats().comm_gave_up, 0u);
}

TEST(FaultInjection, GuardedCommGivesUpAfterRetryBudget) {
  FaultInjectionConfig cfg;
  cfg.comm_failure_prob = 1.0;  // unlimited budget: every attempt fails
  cfg.retry.max_attempts = 3;
  cfg.retry.backoff_seconds = 1e-6;
  FaultInjector inj(cfg);
  int runs = 0;
  EXPECT_THROW(run_comm_guarded(&inj, 0, [&] { ++runs; }), TransientError);
  EXPECT_EQ(runs, 0) << "injected failures fire before the body";
  EXPECT_EQ(inj.stats().comm_failures, 3u);
  EXPECT_EQ(inj.stats().comm_gave_up, 1u);
}

TEST(FaultInjection, GuardedCommNeverRetriesInvariantViolations) {
  FaultInjectionConfig cfg;
  cfg.retry.max_attempts = 4;
  FaultInjector inj(cfg);
  int attempts = 0;
  EXPECT_THROW(run_comm_guarded(&inj, 0,
                                [&] {
                                  ++attempts;
                                  MPIPE_CHECK(false, "planted invariant");
                                }),
               CheckError);
  EXPECT_EQ(attempts, 1) << "CheckError must propagate on the first throw";
}

TEST(FaultInjection, BackoffIsDeterministicAndExponential) {
  RetryPolicy retry;
  retry.backoff_seconds = 10e-6;
  retry.backoff_multiplier = 2.0;
  EXPECT_DOUBLE_EQ(retry.delay_seconds(1), 10e-6);
  EXPECT_DOUBLE_EQ(retry.delay_seconds(2), 20e-6);
  EXPECT_DOUBLE_EQ(retry.delay_seconds(3), 40e-6);
}

TEST(Errors, TransientAndCheckHierarchiesAreDisjoint) {
  static_assert(!std::is_base_of_v<CheckError, TransientError>,
                "retry catch must not see CheckError");
  static_assert(!std::is_base_of_v<TransientError, CheckError>,
                "check catch must not see TransientError");
  // And at run time: a retry-style catch cannot mask an invariant.
  bool masked = false;
  try {
    try {
      throw CheckError("planted invariant");
    } catch (const TransientError&) {
      masked = true;
    }
  } catch (const CheckError&) {
  }
  EXPECT_FALSE(masked);
}

// ---- allocation-failure paths ----------------------------------------------

TEST(BufferPoolRecovery, MidAcquisitionFailureReleasesPartialSlots) {
  // Capacity fits exactly 2 slots of 8x4 floats; a depth-4 pool must throw
  // while acquiring slot 3 and must NOT leak the 2 slots it already held.
  const std::uint64_t slot_bytes = 8 * 4 * sizeof(float);
  mem::DeviceAllocator alloc(0, 2 * slot_bytes);
  EXPECT_THROW(
      mem::BufferPool(&alloc, {8, 8, 8, 8}, 4, mem::Category::kActivation),
      mem::OutOfMemoryError);
  EXPECT_EQ(alloc.tracker().current_total(), 0u)
      << "partially-acquired slots leaked";
  // The freed capacity still serves a fitting pool afterwards.
  mem::BufferPool ok(&alloc, {8, 8}, 4, mem::Category::kActivation);
  EXPECT_EQ(ok.depth(), 2);
  EXPECT_EQ(alloc.tracker().current_total(), 2 * slot_bytes);
}

TEST(DeviceAllocatorFault, InjectedFailureThrowsOomAndBalances) {
  mem::DeviceAllocator alloc(0);
  FaultInjectionConfig cfg;
  cfg.alloc_failure_prob = 1.0;
  cfg.max_alloc_failures = 1;
  alloc.set_fault_injector(std::make_shared<const FaultInjector>(cfg));
  EXPECT_THROW(alloc.allocate(mem::Category::kActivation, 64),
               mem::OutOfMemoryError);
  EXPECT_EQ(alloc.tracker().current_total(), 0u);
  // Budget spent: the next allocation succeeds and accounting balances.
  {
    mem::Allocation a = alloc.allocate(mem::Category::kActivation, 64);
    EXPECT_EQ(alloc.tracker().current_total(), 64u);
  }
  EXPECT_EQ(alloc.tracker().current_total(), 0u);
}

// ---- trainer-level fixtures ------------------------------------------------

core::MoELayerOptions small_layer_options() {
  core::MoELayerOptions o;
  o.d_model = 16;
  o.d_hidden = 32;
  o.num_experts = 4;
  o.num_partitions = 2;
  o.seed = 31;
  return o;
}

runtime::TrainerOptions small_trainer_options() {
  runtime::TrainerOptions topt;
  topt.workload.d_model = 16;
  topt.workload.tokens_per_device = 32;
  topt.workload.num_devices = 4;
  topt.workload.seed = 5;
  topt.adam.lr = 3e-3f;
  return topt;
}

/// One training run; returns the per-call losses (committed steps only —
/// the ladder replays faulted steps inside train_step). `strategy` pins
/// the restore strategy; unset leaves it to the layer's ranking.
std::vector<double> run_losses(
    int steps, const runtime::FaultToleranceOptions* ft,
    const FaultInjectionConfig* inject, runtime::TrainingMetrics* out_metrics,
    std::optional<core::ReuseStrategy> strategy = std::nullopt) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  if (inject != nullptr) cluster.set_fault_injection(*inject);
  core::MoELayerOptions options = small_layer_options();
  options.strategy = strategy;
  core::MoELayer layer(cluster, options);
  runtime::TrainerOptions topt = small_trainer_options();
  topt.steps = steps;
  if (ft != nullptr) topt.fault_tolerance = *ft;
  runtime::Trainer trainer(layer, topt);
  std::vector<double> losses;
  for (int i = 0; i < steps; ++i) losses.push_back(trainer.train_step());
  if (out_metrics != nullptr) *out_metrics = trainer.metrics();
  return losses;
}

// ---- no-fault equivalence --------------------------------------------------

TEST(FaultTolerantTrainer, LadderIsExactNoOpOnFaultFreeRuns) {
  // Numerics guard + per-2-step checkpoints, but nothing injected: every
  // committed loss must be bitwise identical to the unguarded run, and no
  // recovery action may fire.
  const auto plain = run_losses(6, nullptr, nullptr, nullptr);
  runtime::FaultToleranceOptions ft;
  ft.numerics_guard = true;
  ft.checkpoint_interval = 2;
  runtime::TrainingMetrics m;
  const auto guarded = run_losses(6, &ft, nullptr, &m);
  ASSERT_EQ(plain.size(), guarded.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    // Bitwise, not approximate: EXPECT_EQ on doubles.
    EXPECT_EQ(plain[i], guarded[i]) << "step " << i;
  }
  EXPECT_EQ(m.recovery().transient_step_retries, 0u);
  EXPECT_EQ(m.recovery().non_finite_steps, 0u);
  EXPECT_EQ(m.recovery().optimizer_steps_skipped, 0u);
  EXPECT_EQ(m.recovery().rollbacks, 0u);
  EXPECT_GT(m.recovery().checkpoints_taken, 0u);
  EXPECT_EQ(m.recovery().injected.comm_failures, 0u);
}

// ---- checkpoint/restore ----------------------------------------------------

TEST(Checkpoint, MidTrainingRestoreResumesBitwiseIdentically) {
  // Adaptive granularity search + jittered batches, so the checkpoint must
  // carry the searcher's cache/ranges and the workload RNG stream — the
  // history-dependent state that makes a naive weights-only resume diverge.
  auto make_options = [] {
    core::MoELayerOptions o = small_layer_options();
    o.num_partitions = 0;  // adaptive: Algorithm 1 drives n per step
    o.candidate_partitions = {1, 2, 4};
    return o;
  };
  auto make_trainer_options = [] {
    runtime::TrainerOptions topt = small_trainer_options();
    topt.workload.batch_jitter = 0.4;
    return topt;
  };

  std::vector<double> reference;
  {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayer layer(cluster, make_options());
    runtime::Trainer trainer(layer, make_trainer_options());
    for (int i = 0; i < 10; ++i) reference.push_back(trainer.train_step());
  }

  std::vector<std::uint8_t> bytes;
  {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayer layer(cluster, make_options());
    runtime::Trainer trainer(layer, make_trainer_options());
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(reference[static_cast<std::size_t>(i)], trainer.train_step())
          << "pre-checkpoint step " << i;
    }
    bytes = trainer.checkpoint_bytes();
  }

  {
    // A *fresh* process-equivalent: new cluster, layer, trainer — only the
    // checkpoint image crosses over.
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayer layer(cluster, make_options());
    runtime::Trainer trainer(layer, make_trainer_options());
    trainer.restore_from_bytes(bytes);
    EXPECT_EQ(trainer.steps_run(), 5);
    for (int i = 5; i < 10; ++i) {
      // Bitwise: the resumed stream must be indistinguishable.
      EXPECT_EQ(reference[static_cast<std::size_t>(i)], trainer.train_step())
          << "resumed step " << i;
    }
  }
}

TEST(Checkpoint, MidWarmupImageRoundTripsByteForByte) {
  // A trainer one step into a three-step correction warmup carries a
  // partial fit and no installed corrections. Restoring its image into a
  // fresh trainer and re-exporting must reproduce the image exactly, and
  // the restored trainer must finish the warmup on the same step the
  // original would have.
  runtime::TrainerOptions topt = small_trainer_options();
  topt.profile_warmup_steps = 3;
  std::vector<std::uint8_t> bytes;
  {
    sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
    core::MoELayer layer(cluster, small_layer_options());
    runtime::Trainer trainer(layer, topt);
    trainer.train_step();
    ASSERT_FALSE(trainer.corrections_installed());
    bytes = trainer.checkpoint_bytes();
  }
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, small_layer_options());
  runtime::Trainer trainer(layer, topt);
  trainer.restore_from_bytes(bytes);
  EXPECT_EQ(trainer.checkpoint_bytes(), bytes);
  EXPECT_EQ(trainer.steps_run(), 1);
  EXPECT_FALSE(trainer.corrections_installed());
  trainer.train_step();
  EXPECT_FALSE(trainer.corrections_installed());
  trainer.train_step();
  EXPECT_TRUE(trainer.corrections_installed());
  EXPECT_FALSE(layer.options().profile_execution);
}

TEST(Checkpoint, FileRoundTripPreservesTheImage) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, small_layer_options());
  runtime::TrainerOptions topt = small_trainer_options();
  runtime::Trainer trainer(layer, topt);
  for (int i = 0; i < 2; ++i) trainer.train_step();
  const std::string path = ::testing::TempDir() + "mpipe_ckpt_test.bin";
  trainer.save_checkpoint(path);
  const auto bytes = trainer.checkpoint_bytes();
  EXPECT_EQ(runtime::read_checkpoint_file(path), bytes);
  EXPECT_NO_THROW(trainer.restore_checkpoint(path));
  EXPECT_EQ(trainer.steps_run(), 2);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptImagesAreRejectedWithoutTouchingState) {
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  core::MoELayer layer(cluster, small_layer_options());
  runtime::Trainer trainer(layer, small_trainer_options());
  for (int i = 0; i < 2; ++i) trainer.train_step();
  const auto good = trainer.checkpoint_bytes();

  // One flipped payload byte: the checksum must catch it.
  auto flipped = good;
  flipped[flipped.size() - 1] ^= 0x40;
  EXPECT_THROW(trainer.restore_from_bytes(flipped), CheckError);

  // Truncation: the frame-length check must catch it.
  auto truncated = good;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(trainer.restore_from_bytes(truncated), CheckError);

  // Foreign magic and unsupported version.
  auto bad_magic = good;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(trainer.restore_from_bytes(bad_magic), CheckError);
  auto bad_version = good;
  bad_version[8] ^= 0x02;  // u32 version follows the u64 magic
  EXPECT_THROW(trainer.restore_from_bytes(bad_version), CheckError);

  // The rejected restores left training state intact: the good image still
  // applies and the trainer keeps stepping from it.
  EXPECT_NO_THROW(trainer.restore_from_bytes(good));
  EXPECT_EQ(trainer.steps_run(), 2);
  EXPECT_TRUE(std::isfinite(trainer.train_step()));
}

TEST(Checkpoint, ChecksumIsFnv1a64Reference) {
  // Pin the checksum primitive to its published constants so the on-disk
  // format cannot silently drift: FNV-1a 64 of "a" is a known vector.
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(runtime::fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(runtime::fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
}

// ---- the degradation ladder under injected faults --------------------------

TEST(FaultTolerantTrainer, InjectedOomIsFatalToTheStepButTheLayerRecovers) {
  // OOM — injected or real — is never retried: the step throws. But the
  // layer must unwind its step context cleanly, so the next step (budget
  // exhausted) trains normally.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  FaultInjectionConfig inject;
  inject.alloc_failure_prob = 1.0;
  inject.max_alloc_failures = 1;
  cluster.set_fault_injection(inject);
  core::MoELayer layer(cluster, small_layer_options());
  runtime::TrainerOptions topt = small_trainer_options();
  runtime::Trainer trainer(layer, topt);
  EXPECT_THROW(trainer.train_step(), mem::OutOfMemoryError);
  const double loss = trainer.train_step();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_EQ(trainer.metrics().steps(), 1u);
  EXPECT_EQ(trainer.metrics().recovery().injected.alloc_failures, 1u);
}

TEST(StragglerWatchdog, InjectedDelayIsFlaggedAndMathUnchanged) {
  // One injected 2ms straggler on a profiled run: the watchdog (threshold
  // 3x the class-median measured/modeled ratio) must flag at least one op,
  // and the injected delay must not perturb a single committed loss bit.
  const auto clean = run_losses(3, nullptr, nullptr, nullptr);

  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  FaultInjectionConfig inject;
  inject.straggler_prob = 1.0;
  inject.max_stragglers = 1;
  inject.straggler_delay_seconds = 2e-3;
  cluster.set_fault_injection(inject);
  core::MoELayerOptions o = small_layer_options();
  o.profile_execution = true;
  o.straggler_threshold = 3.0;
  core::MoELayer layer(cluster, o);
  runtime::TrainerOptions topt = small_trainer_options();
  topt.steps = 3;
  runtime::Trainer trainer(layer, topt);
  std::vector<double> losses;
  for (int i = 0; i < 3; ++i) losses.push_back(trainer.train_step());

  ASSERT_EQ(clean.size(), losses.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i], losses[i]) << "step " << i;
  }
  EXPECT_EQ(trainer.metrics().recovery().injected.stragglers, 1u);
  EXPECT_GE(trainer.metrics().recovery().straggler_flags, 1u)
      << "watchdog missed a 2ms delay on a microsecond-scale op";
}

TEST(FaultTolerantTrainer, ChaosRunConvergesBitwiseIdenticalToCleanRun) {
  // The acceptance chaos scenario: transient comm failures erased by the
  // comm-level retry, one payload float NaN-corrupted (numerics guard →
  // rollback → clean replay), one injected straggler (wall-clock only) —
  // and the committed loss trajectory must stay bitwise identical to the
  // fault-free run. The seed randomizes *where* comm faults land; the
  // property must hold for every seed, and the log line replays failures.
  const char* env_seed = std::getenv("MPIPE_CHAOS_SEED");
  const std::uint64_t seed =
      env_seed != nullptr ? std::strtoull(env_seed, nullptr, 10) : 2024ull;
  std::cout << "[ CHAOS  ] MPIPE_CHAOS_SEED=" << seed << std::endl;
  RecordProperty("chaos_seed", static_cast<int>(seed));

  const int kSteps = 8;
  const auto clean = run_losses(kSteps, nullptr, nullptr, nullptr);

  FaultInjectionConfig inject;
  inject.seed = seed;
  inject.comm_failure_prob = 0.2;  // frequent, but budget-capped below the
  inject.max_comm_failures = 3;    // retry depth — comm always recovers
  inject.straggler_prob = 1.0;
  inject.max_stragglers = 1;
  inject.straggler_delay_seconds = 1e-3;
  inject.corrupt_payload_prob = 1.0;
  inject.max_corruptions = 1;
  // Aim the one NaN at a combine destination ("R*"), which feeds the loss
  // directly so the numerics guard sees it. A NaN below the expert ReLU
  // would be flushed to zero by the max and needs the boundary scan
  // instead (scan_payloads — exercised by the PayloadScan tests below).
  inject.corrupt_label_filter = "R";
  inject.retry.backoff_seconds = 1e-6;

  runtime::FaultToleranceOptions ft;
  ft.numerics_guard = true;
  ft.checkpoint_interval = 1;
  ft.rollback_after = 1;  // any poisoned step rolls back immediately
  ft.max_rollbacks = 8;

  runtime::TrainingMetrics m;
  const auto chaos = run_losses(kSteps, &ft, &inject, &m);

  ASSERT_EQ(clean.size(), chaos.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    // Bitwise: recovery must fully erase every injected fault.
    EXPECT_EQ(clean[i], chaos[i]) << "step " << i << " (seed " << seed << ")";
  }
  EXPECT_EQ(m.steps(), static_cast<std::size_t>(kSteps));
  // The faults really happened — and the ladder really ran.
  EXPECT_EQ(m.recovery().injected.corruptions, 1u);
  EXPECT_EQ(m.recovery().injected.stragglers, 1u);
  EXPECT_GE(m.recovery().injected.comm_failures, 1u);
  EXPECT_GE(m.recovery().injected.comm_retries, 1u);
  EXPECT_GE(m.recovery().non_finite_steps, 1u);
  EXPECT_GE(m.recovery().rollbacks, 1u);
  EXPECT_GE(m.recovery().checkpoints_taken, 1u);
}

TEST(PayloadScan, DetectsBelowReluCorruptionAndReplaysBitwiseClean) {
  // The SDC hole the scan closes: a NaN injected into a dispatch
  // destination ("S*" — the expert's input) is flushed to zero by the
  // ReLU, so neither the numerics guard nor the loss ever sees it. With
  // scan_payloads on, the boundary scan raises a TransientError at the
  // comm op itself; the step-replay ladder replays the step (the one-shot
  // corruption budget is spent), and the committed losses must be bitwise
  // identical to a fault-free run.
  //
  // Pinned to S1 and S3, the NaN goes to partition 1's dispatch ("S1"),
  // which the reference order runs after every partition-0 offload, so the
  // failed step dies with host-staging slots full and the replay offloads
  // into them again.
  struct Case {
    std::optional<core::ReuseStrategy> strategy;
    const char* filter;
  };
  const Case cases[] = {{std::nullopt, "S"},
                        {core::ReuseStrategy::kS1, "S1"},
                        {core::ReuseStrategy::kS3, "S1"}};
  const int kSteps = 2;
  for (const Case& c : cases) {
    const std::string name =
        c.strategy ? core::to_string(*c.strategy) : std::string("unset");
    const auto clean = run_losses(kSteps, nullptr, nullptr, nullptr,
                                  c.strategy);

    FaultInjectionConfig inject;
    inject.corrupt_payload_prob = 1.0;
    inject.max_corruptions = 1;
    inject.corrupt_label_filter = c.filter;
    inject.scan_payloads = true;
    inject.retry.backoff_seconds = 1e-6;
    runtime::TrainingMetrics m;
    const auto scanned = run_losses(kSteps, nullptr, &inject, &m, c.strategy);

    ASSERT_EQ(clean.size(), scanned.size()) << name;
    for (std::size_t i = 0; i < clean.size(); ++i) {
      EXPECT_EQ(clean[i], scanned[i]) << name << " step " << i;
    }
    EXPECT_EQ(m.recovery().injected.corruptions, 1u) << name;
    EXPECT_GE(m.recovery().injected.corruptions_detected, 1u) << name;
    EXPECT_GE(m.recovery().transient_step_retries, 1u) << name;
  }
}

TEST(PayloadScan, OffByDefaultTheSameCorruptionIsSilent) {
  // Control for the test above: identical injection with the scan off.
  // The run completes with finite losses and zero detections — the
  // corruption was absorbed by the ReLU flush, which is exactly the
  // silent-data-corruption mode the scan exists to surface.
  const int kSteps = 2;
  const auto clean = run_losses(kSteps, nullptr, nullptr, nullptr);

  FaultInjectionConfig inject;
  inject.corrupt_payload_prob = 1.0;
  inject.max_corruptions = 1;
  inject.corrupt_label_filter = "S";
  runtime::TrainingMetrics m;
  const auto silent = run_losses(kSteps, nullptr, &inject, &m);

  EXPECT_EQ(m.recovery().injected.corruptions, 1u);
  EXPECT_EQ(m.recovery().injected.corruptions_detected, 0u);
  EXPECT_EQ(m.recovery().transient_step_retries, 0u);
  for (const double loss : silent) EXPECT_TRUE(std::isfinite(loss));
  // The math silently diverged from the clean run — nobody noticed.
  EXPECT_NE(clean[0], silent[0]);
}

TEST(FaultTolerantTrainer, ExhaustedRollbackBudgetAbortsWithDiagnostics) {
  // Unlimited corruption with a rollback budget of 1: the first poisoned
  // step rolls back, the replay is poisoned again (probability 1, no
  // budget cap), and the second rollback attempt must abort loudly with
  // the recovery counters in the message — ladder rung 3.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  FaultInjectionConfig inject;
  inject.corrupt_payload_prob = 1.0;  // every guarded segment copy poisons
  cluster.set_fault_injection(inject);
  core::MoELayer layer(cluster, small_layer_options());
  runtime::TrainerOptions topt = small_trainer_options();
  topt.fault_tolerance.numerics_guard = true;
  topt.fault_tolerance.checkpoint_interval = 1;
  topt.fault_tolerance.rollback_after = 1;
  topt.fault_tolerance.max_rollbacks = 1;
  runtime::Trainer trainer(layer, topt);
  try {
    for (int i = 0; i < 4; ++i) trainer.train_step();
    FAIL() << "persistent corruption must exhaust the ladder";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rollback budget exhausted"), std::string::npos);
    EXPECT_NE(what.find("corruptions"), std::string::npos) << what;
    EXPECT_NE(what.find("gave up"), std::string::npos) << what;
  }
  EXPECT_EQ(trainer.metrics().recovery().rollbacks, 1u);
  EXPECT_GE(trainer.metrics().recovery().non_finite_steps, 2u);
}

TEST(FaultTolerantTrainer, GuardWithoutCheckpointSkipsThenAborts) {
  // Numerics guard on, checkpointing off: rung 1 (skip the update) is the
  // only recovery available; once the skip tolerance is exceeded the
  // trainer must abort rather than train on poison forever.
  sim::Cluster cluster = sim::Cluster::dgx_a100_pod(1, 4);
  FaultInjectionConfig inject;
  inject.corrupt_payload_prob = 1.0;
  cluster.set_fault_injection(inject);
  core::MoELayer layer(cluster, small_layer_options());
  runtime::TrainerOptions topt = small_trainer_options();
  topt.fault_tolerance.numerics_guard = true;
  topt.fault_tolerance.rollback_after = 2;
  runtime::Trainer trainer(layer, topt);
  // First poisoned step: the update is skipped, the call still returns.
  EXPECT_TRUE(std::isnan(trainer.train_step()));
  EXPECT_EQ(trainer.metrics().recovery().optimizer_steps_skipped, 1u);
  EXPECT_EQ(trainer.metrics().steps(), 0u) << "skipped steps must not commit";
  // Second consecutive poisoned step: no checkpoint to roll back to.
  try {
    trainer.train_step();
    FAIL() << "skip tolerance exceeded with no checkpoint must abort";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("no checkpoint"), std::string::npos);
  }
}

}  // namespace
}  // namespace mpipe
