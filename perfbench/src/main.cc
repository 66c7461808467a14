// perfbench: the repository benchmark binary.
//
//   perfbench --workload <orders_durable|escrow_backlog|restart>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//
// Runs one workload against the public ShardedRuntime API and prints, as
// its last stdout line, one JSON object: the correctness verdict, the
// attempted/failed counts, the end-to-end metrics, the per-layer metrics
// (traced runs), details and the run's environment. Any failed correctness
// check is printed to stderr and the process exits 1 without a result.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::JsonNumber;
using perfbench::JsonString;
using perfbench::MetricList;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->out_dir.empty() &&
         args->seconds > 0 && (argc % 2) == 1;
}

std::string MetricsJson(const MetricList& list) {
  std::string out = "{";
  for (const perfbench::Metric& m : list.items()) {
    if (out.size() > 1) out += ",";
    out += JsonString(m.name) + ":{\"value\":" + JsonNumber(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --out-dir <dir>\n";
    return 2;
  }
  if (!perfbench::FreshDir(args.out_dir + "/tmp")) {
    std::cerr << "cannot create " << args.out_dir << "/tmp\n";
    return 1;
  }
  Args run_args = args;
  run_args.out_dir = args.out_dir + "/tmp";

  perfbench::Report report;
  perfbench::Gate gate;
  if (args.workload == "orders_durable") {
    perfbench::RunOrdersDurable(run_args, &report, &gate);
  } else if (args.workload == "escrow_backlog") {
    perfbench::RunEscrowBacklog(run_args, &report, &gate);
  } else if (args.workload == "restart") {
    perfbench::RunRestart(run_args, &report, &gate);
  } else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  gate.Check(report.attempted >= 1, "no process was attempted");
  if (!gate.ok()) {
    for (const std::string& failure : gate.failures()) {
      std::cerr << "CHECK FAILED: " << failure << "\n";
    }
    return 1;
  }

  std::string details = "{";
  for (const auto& [name, json] : report.details) {
    if (details.size() > 1) details += ",";
    details += JsonString(name) + ":" + json;
  }
  details += "}";
  const std::string env =
      "{\"hardware_threads\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
      ",\"compiler\":" + JsonString(__VERSION__) +
      ",\"wal_filesystem\":" +
      JsonString(perfbench::FilesystemOf(run_args.out_dir)) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + std::to_string(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") + "}";
  std::cout << "{\"correct\":true,\"attempted\":" << report.attempted
            << ",\"failed\":" << report.failed
            << ",\"e2e\":" << MetricsJson(report.e2e)
            << ",\"layers\":" << MetricsJson(report.layers)
            << ",\"details\":" << details << ",\"env\":" << env << "}"
            << std::endl;
  return 0;
}
