// perfbench - the repository benchmark program.
//
//   perfbench --workload <cold-grid|warm-edit|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a human-readable report, then one JSON line with the run's
// correctness outcome and metrics (end-to-end with --trace 0, per-layer
// with --trace 1). Exits non-zero on any correctness miss.
#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<cold-grid|warm-edit|serve-mixed> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i], value = argv[i + 1];
    char *end = nullptr;
    if (flag == "--workload")
      options.workload = value;
    else if (flag == "--seed")
      options.seed = std::strtoull(value.c_str(), &end, 10);
    else if (flag == "--seconds")
      options.seconds = std::strtod(value.c_str(), &end);
    else if (flag == "--trace")
      options.trace = value == "1";
    else
      return usage(("unknown flag " + flag).c_str());
    if (end && *end)
      return usage(("bad value for " + flag).c_str());
  }
  if (argc % 2 == 0)
    return usage("flags take one value each");
  if (options.seconds <= 0)
    return usage("--seconds must be positive");

  Result result;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  if (options.workload == "cold-grid")
    runColdGrid(options, result);
  else if (options.workload == "warm-edit")
    runWarmEdit(options, result);
  else if (options.workload == "serve-mixed")
    runServeMixed(options, result);
  else
    return usage(("unknown workload '" + options.workload + "'").c_str());
  return result.finish();
}
