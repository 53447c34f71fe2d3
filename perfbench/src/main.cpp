// osel_perfbench — the repository benchmark. See perfbench/README.md.
//
//   osel_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--golden FILE] [--commit SHA]
//                  [--source-digest SHA256]
//   osel_perfbench --workload paper-suite --write-golden FILE
//
// The last line of stdout is the result: {"correct", "attempted",
// "failed", "metrics"}; the line before it carries details and provenance.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr,
               "osel_perfbench: %s\nusage: osel_perfbench --workload "
               "paper-suite|decide-hot|decide-cold|wire-open --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--golden FILE] "
               "[--commit SHA] [--source-digest SHA256] [--write-golden "
               "FILE]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("every option takes a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.outDir = value;
    } else if (flag == "--golden") {
      options.goldenPath = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--source-digest") {
      options.sourceDigest = value;
    } else if (flag == "--write-golden") {
      options.writeGolden = value;
    } else {
      return usage("unknown option");
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    Report report;
    if (options.workload == "paper-suite") {
      if (!options.writeGolden.empty()) return writePaperSuiteGolden(options);
      runPaperSuite(options, report);
    } else if (options.workload == "decide-hot") {
      runDecideHot(options, report);
    } else if (options.workload == "decide-cold") {
      runDecideCold(options, report);
    } else if (options.workload == "wire-open") {
      runWireOpen(options, report);
    } else {
      return usage("unknown workload");
    }
    report.print(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "osel_perfbench: %s\n", error.what());
    return 1;
  }
  return 0;
}
