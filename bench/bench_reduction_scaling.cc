// E14 — reduction machinery scaling: the polynomial RED decision procedure
// vs the exhaustive rewrite oracle, and full PRED analysis — the one-pass
// certifier vs Def. 10 taken literally (every prefix completed and reduced)
// — as schedule size grows.

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "common/str_util.h"
#include "core/baseline_schedulers.h"
#include "core/pred.h"
#include "core/reduction.h"
#include "testing/pred_oracle.h"
#include "workload/process_generator.h"
#include "workload/schedule_generator.h"

using namespace tpm;

namespace {

GeneratedSchedule MakeWorkload(int num_processes, double density,
                               uint64_t seed) {
  Rng rng(seed);
  RandomScheduleConfig config;
  config.num_processes = num_processes;
  config.conflict_density = density;
  config.stop_probability = 0.0;
  auto generated = GenerateRandomSchedule(config, &rng);
  // Generation of valid configs cannot fail.
  return std::move(generated).value();
}

void PrintComparison() {
  std::cout << "E14 | reduction decision procedures\n";
  std::cout << "  polynomial checker vs exhaustive rewriter (same "
               "verdicts, test-validated):\n";
  for (int n : {2, 3}) {
    GeneratedSchedule w = MakeWorkload(n, 0.3, 17 + n);
    auto completed = CompleteSchedule(w.schedule);
    if (!completed.ok()) continue;
    std::set<ProcessId> committed;
    for (const auto& [pid, def] : w.schedule.processes()) {
      if (w.schedule.IsProcessCommitted(pid)) committed.insert(pid);
    }

    auto t0 = std::chrono::steady_clock::now();
    ReductionOutcome poly =
        ReduceCompletedSchedule(*completed, w.spec, committed);
    auto poly_us = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    t0 = std::chrono::steady_clock::now();
    auto oracle = IsReducibleExhaustive(*completed, w.spec, committed,
                                        /*max_tokens=*/12,
                                        /*max_states=*/2'000'000);
    auto oracle_us = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    std::cout << "    processes=" << n << " events="
              << completed->size() << "  poly=" << poly_us << "us ("
              << (poly.reducible ? "RED" : "not RED") << ")  oracle=";
    if (oracle.ok()) {
      std::cout << oracle_us << "us (" << (*oracle ? "RED" : "not RED")
                << ")";
    } else {
      std::cout << "skipped (" << oracle.status().message() << ")";
    }
    std::cout << "\n";
  }
  std::cout << "\n";
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// PRED on histories the scheduler emits, so both analyses scan every
// prefix: the certifier against the per-prefix oracle at ~10^2, 10^3 and
// 10^4 events. All at once, every process is submitted before the run, so
// hundreds are in flight; staggered, one is submitted per scheduler pass,
// so few are, and the certifier settles what finished. The processes have
// no retriable tails: with them, a group abort's forward steps can close a
// cycle and end the scan early (ROADMAP). The oracle is about O(n^3) and
// is skipped beyond `kOracleMaxEvents`.
// Returns false when a row fails to build or run, or when the certifier and
// the oracle disagree: with certification unconditional at every recovery
// boundary, a wrong certifier verdict must fail this bench.
bool PrintPredScaling() {
  constexpr size_t kOracleMaxEvents = 2000;
  std::cout << "E14 | PRED: one-pass certifier vs per-prefix oracle "
               "(kPred scheduler histories)\n";
  for (bool staggered : {false, true}) {
    for (int processes : {25, 250, 2500}) {
      const std::string row =
          StrCat(staggered ? "staggered" : "all at once",
                 " processes=", processes);
      SyntheticUniverse universe(2, std::max(8, processes / 4));
      ProcessShape shape;
      shape.items_per_process = 2;
      shape.nested_probability = 0;
      shape.min_retriable = 0;
      shape.max_retriable = 0;
      ProcessGenerator generator(&universe, shape, 14);
      auto scheduler = MakePredScheduler();
      Status built = universe.RegisterAll(scheduler.get());
      for (int i = 0; i < processes && built.ok(); ++i) {
        auto def = generator.Generate(StrCat("e14_", i));
        built = def.ok() ? scheduler->Submit(*def).status() : def.status();
        if (built.ok() && staggered) built = scheduler->Step().status();
      }
      if (built.ok()) built = scheduler->Run();
      if (!built.ok()) {
        std::cout << "    " << row << "  [FAILED to build: " << built
                  << "]\n";
        return false;
      }
      const ProcessSchedule& history = scheduler->history();
      const ConflictSpec& spec = scheduler->conflict_spec();

      auto t0 = std::chrono::steady_clock::now();
      auto certified = AnalyzePRED(history, spec);
      const double certifier_s = SecondsSince(t0);
      std::cout << "    " << row << " events=" << history.size()
                << "  certifier=" << certifier_s * 1e3 << "ms ("
                << (certified.ok() ? certified->ToString()
                                   : certified.status().ToString())
                << ")  oracle=";
      if (!certified.ok()) {
        std::cout << "[FAILED: certifier error]\n";
        return false;
      }
      if (history.size() > kOracleMaxEvents) {
        std::cout << "skipped (> " << kOracleMaxEvents << " events)\n";
        continue;
      }
      t0 = std::chrono::steady_clock::now();
      auto oracle = testing::AnalyzePREDPerPrefix(history, spec);
      const double oracle_s = SecondsSince(t0);
      std::cout << oracle_s * 1e3 << "ms ("
                << (oracle.ok() ? oracle->ToString()
                                : oracle.status().ToString())
                << ")  speedup=" << oracle_s / certifier_s << "x\n";
      if (!oracle.ok() || oracle->ToString() != certified->ToString()) {
        std::cout << "    [FAILED: certifier and oracle verdicts differ]\n";
        return false;
      }
    }
  }
  std::cout << "\n";
  return true;
}

void BM_PolynomialRed(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto outcome = AnalyzeRED(w.schedule, w.spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetComplexityN(static_cast<int64_t>(w.schedule.size()));
}
BENCHMARK(BM_PolynomialRed)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity();

void BM_FullPredAnalysis(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto outcome = AnalyzePRED(w.schedule, w.spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetComplexityN(static_cast<int64_t>(w.schedule.size()));
}
BENCHMARK(BM_FullPredAnalysis)->Arg(2)->Arg(4)->Arg(8)->Complexity();

void BM_PerPrefixPredOracle(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto outcome = testing::AnalyzePREDPerPrefix(w.schedule, w.spec);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetComplexityN(static_cast<int64_t>(w.schedule.size()));
}
BENCHMARK(BM_PerPrefixPredOracle)->Arg(2)->Arg(4)->Arg(8)->Complexity();

void BM_CompleteSchedule(benchmark::State& state) {
  GeneratedSchedule w =
      MakeWorkload(static_cast<int>(state.range(0)), 0.1, 5);
  for (auto _ : state) {
    auto completed = CompleteSchedule(w.schedule);
    benchmark::DoNotOptimize(completed);
  }
}
BENCHMARK(BM_CompleteSchedule)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  PrintComparison();
  if (!PrintPredScaling()) return 1;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
