// hostbench: host-time benchmark of the FlexOS simulator.
//
//   hostbench --workload <iperf_stream|redis_boot|redis_steady|redis_observed>
//             --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Usually started through run.py, which builds it first.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "runner.h"
#include "support/strings.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <iperf_stream|redis_boot|redis_steady|"
               "redis_observed> --seed <n> --seconds <s> --trace <0|1> "
               "[--out <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flexos;
  hostbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = hostbench::ParseWorkload(value, &args.workload);
      if (!have_workload) {
        return Usage(argv[0]);
      }
    } else if (flag == "--seed") {
      const std::optional<uint64_t> seed = ParseU64(value);
      if (!seed.has_value()) {
        return Usage(argv[0]);
      }
      args.seed = *seed;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds >= 0)) {
        return Usage(argv[0]);
      }
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || argc % 2 == 0) {
    return Usage(argv[0]);
  }
  hostbench::RunBenchmark(args, stdout);
  return 0;
}
