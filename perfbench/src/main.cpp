// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <chrome trace path>]
//   perfbench --selftest
//
// Generates the workload's inputs from --seed, drives the public entry
// points of lpt_core / lpt_shard / lpt_service for --seconds, checks every
// answer with the program-independent checkers of check.hpp, and prints one
// JSON object as the last line of standard output.  Untraced runs report
// the end-to-end metrics; traced runs report the per-layer ones (run.py adds
// the metrics derived from the Chrome trace).  Exits 1 when an answer check
// or the checker self-test fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "check.hpp"
#include "engine.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <low_load_pull|"
               "high_load_push|service_mixed|shard_socket> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <path>]\n"
               "       perfbench --selftest\n",
               why);
  return 2;
}

bool parse_number(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::mark_start();
  perfbench::Args args;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      selftest_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    double num = 0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (!parse_number(value, num) || num < 0) {
      return usage(("bad value for " + key).c_str());
    } else if (key == "--seed") {
      args.seed = static_cast<std::uint64_t>(num);
    } else if (key == "--seconds") {
      args.seconds = num;
    } else if (key == "--trace") {
      args.trace = num != 0;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (selftest_only) {
    const int wrong = perfbench::check::selftest(true);
    std::fprintf(stderr, "selftest: %d case(s) decided wrongly\n", wrong);
    return wrong == 0 ? 0 : 1;
  }
  if (args.trace && args.trace_out.empty()) {
    return usage("--trace 1 needs --trace-out");
  }

  perfbench::Report report;
  if (args.workload == "low_load_pull") {
    perfbench::run_low_load_pull(args, report);
  } else if (args.workload == "high_load_push") {
    perfbench::run_high_load_push(args, report);
  } else if (args.workload == "service_mixed") {
    perfbench::run_service_mixed(args, report);
  } else if (args.workload == "shard_socket") {
    perfbench::run_shard_socket(args, report);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace) perfbench::write_trace(report, args.trace_out);

  // The checkers must reject perturbed answers, or their verdicts above
  // prove nothing; the self-test is cheap, so every run repeats it.
  if (perfbench::check::selftest(false) != 0) {
    report.check("checker self-test failed");
  }
  for (const std::string& e : report.errors) {
    std::fprintf(stderr, "perfbench: answer check failed: %s\n", e.c_str());
  }
  std::cout << report.to_json(args) << std::endl;
  return report.correct ? 0 : 1;
}
