// perfbench/src/workloads.h — the four workloads. Each one generates its
// inputs from the seed before timing, runs for the requested seconds,
// checks every output, and fills the report: end-to-end metrics on an
// untraced run, per-layer metrics (plus the tracing overhead) when traced.
#pragma once

#include "common.h"

namespace perfbench {

void runPaperSuite(const Options& options, Report& report);
void runDecideHot(const Options& options, Report& report);
void runDecideCold(const Options& options, Report& report);
void runWireOpen(const Options& options, Report& report);

/// Writes the paper-suite golden (chosen device and simulated seconds per
/// kernel and mode, host-only seconds per benchmark) from the current
/// sources to options.writeGolden. Returns a process exit code.
int writePaperSuiteGolden(const Options& options);

}  // namespace perfbench
