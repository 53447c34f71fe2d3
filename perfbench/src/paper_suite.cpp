// paper-suite: the paper's own run. Every Polybench kernel in test and
// benchmark mode goes through TargetRuntime::launch under ModelGuided on
// the Fig. 8 platform, one thread, closed loop, with a freshly allocated
// and initialized ArrayStore per launch. The seed only permutes the launch
// order: the inputs are the paper's. Every launch's chosen device and
// simulated seconds are checked against a golden taken from the parent
// commit, which also pins the Fig. 8 model-guided geomean speedups.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "cpusim/cpu_simulator.h"
#include "gpusim/gpu_simulator.h"
#include "layers.h"
#include "polybench/polybench.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Benchmark-mode sizes are divided by this, as fig8_policy_selection's
/// default --scale does; test-mode sizes are never scaled.
constexpr std::int64_t kBenchmarkScale = 4;
constexpr std::size_t kMaxPasses = 64;
/// How far a launch's replayed simulator and decision may exceed its launch
/// span before the attribution check flags it. The replay is one more run
/// of the same work on a shared host, and two adjacent runs of one kernel
/// differed by up to 40% there; a launch span that missed its simulation
/// would be off by far more.
constexpr double kReplayMargin = 0.5;
constexpr double kReplaySlackNs = 1'000'000;

constexpr const char* kSpanOp = "suite.launch_op";
constexpr const char* kSpanStore = "polybench.store_init";
constexpr const char* kSpanLaunch = "runtime.launch";
constexpr const char* kSpanDecide = "runtime.decide";
constexpr const char* kSpanCpuSim = "cpusim.simulate";
constexpr const char* kSpanGpuSim = "gpusim.simulate";

struct Launch {
  const polybench::Benchmark* benchmark = nullptr;
  const ir::TargetRegion* kernel = nullptr;
  std::string mode;
  symbolic::Bindings bindings;
};

std::vector<Launch> suiteLaunches() {
  std::vector<Launch> launches;
  for (const polybench::Mode mode :
       {polybench::Mode::Test, polybench::Mode::Benchmark}) {
    for (const polybench::Benchmark& benchmark : polybench::suite()) {
      const std::int64_t n =
          mode == polybench::Mode::Test
              ? benchmark.size(mode)
              : std::max<std::int64_t>(16,
                                       benchmark.size(mode) / kBenchmarkScale);
      for (const ir::TargetRegion& kernel : benchmark.kernels()) {
        launches.push_back({&benchmark, &kernel, polybench::toString(mode),
                            benchmark.bindings(n)});
      }
    }
  }
  return launches;
}

ir::ArrayStore freshStore(const Launch& launch) {
  ir::ArrayStore store = launch.benchmark->allocate(launch.bindings);
  polybench::initializeInputs(*launch.benchmark, launch.bindings, store);
  return store;
}

const char* deviceName(runtime::Device device) {
  return device == runtime::Device::Gpu ? "gpu" : "cpu";
}

/// The golden file: `launch <mode> <kernel> <device> <seconds>`,
/// `cpu_only <mode> <benchmark> <seconds>`, `total <mode> <seconds>` and
/// `speedup <mode> <geomean>` lines.
struct Golden {
  /// mode/kernel -> (device, seconds)
  std::map<std::string, std::pair<std::string, double>> launches;
  std::map<std::string, double> cpuOnly;  // mode/benchmark
  std::map<std::string, double> total;    // mode
  std::map<std::string, double> speedup;  // mode
};

Golden readGolden(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read golden " + path);
  Golden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    std::string mode;
    fields >> kind >> mode;
    if (kind == "launch") {
      std::string kernel;
      std::string device;
      double seconds = 0.0;
      fields >> kernel >> device >> seconds;
      golden.launches[mode + "/" + kernel] = {device, seconds};
    } else if (kind == "cpu_only") {
      std::string benchmark;
      double seconds = 0.0;
      fields >> benchmark >> seconds;
      golden.cpuOnly[mode + "/" + benchmark] = seconds;
    } else if (kind == "total") {
      fields >> golden.total[mode];
    } else if (kind == "speedup") {
      fields >> golden.speedup[mode];
    }
    if (fields.fail()) {
      throw std::runtime_error("malformed golden line: " + line);
    }
  }
  return golden;
}

/// Each launch's time over the passes, from the fast end (kFastShare).
std::vector<double> fastTimes(
    const std::vector<std::vector<double>>& perLaunch) {
  std::vector<double> out;
  out.reserve(perLaunch.size());
  for (const std::vector<double>& values : perLaunch) {
    out.push_back(fastOf(values));
  }
  return out;
}

bool sameSeconds(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

struct Outcome {
  runtime::Device device = runtime::Device::Cpu;
  double seconds = 0.0;
};

/// Per-mode model-guided totals and geomean speedups over host-only, from
/// one pass's outcomes and the golden host-only seconds.
struct PassSummary {
  std::map<std::string, double> total;
  std::map<std::string, double> speedup;
};

PassSummary summarize(const std::vector<Launch>& launches,
                      const std::vector<Outcome>& outcomes,
                      const Golden& golden) {
  PassSummary summary;
  std::map<std::string, double> perBenchmark;  // mode/benchmark
  for (std::size_t i = 0; i < launches.size(); ++i) {
    summary.total[launches[i].mode] += outcomes[i].seconds;
    perBenchmark[launches[i].mode + "/" + launches[i].benchmark->name()] +=
        outcomes[i].seconds;
  }
  std::map<std::string, std::pair<double, int>> logSum;  // mode
  for (const auto& [key, seconds] : perBenchmark) {
    const std::string mode = key.substr(0, key.find('/'));
    const auto it = golden.cpuOnly.find(key);
    if (it == golden.cpuOnly.end()) continue;
    logSum[mode].first += std::log(it->second / seconds);
    logSum[mode].second += 1;
  }
  for (const auto& [mode, sum] : logSum) {
    summary.speedup[mode] = std::exp(sum.first / sum.second);
  }
  return summary;
}

/// The correctness gate of one pass: device and simulated seconds per
/// launch, then the per-mode totals and speedups.
PassSummary checkPass(const std::vector<Launch>& launches,
                      const std::vector<Outcome>& outcomes,
                      const Golden& golden, Report& report) {
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const std::string key = launches[i].mode + "/" + launches[i].kernel->name;
    const auto it = golden.launches.find(key);
    if (it == golden.launches.end()) {
      report.mismatch(key + ": not in the golden");
      continue;
    }
    const char* device = deviceName(outcomes[i].device);
    if (it->second.first != device ||
        !sameSeconds(it->second.second, outcomes[i].seconds)) {
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer), "%s: %s %.17g, golden %s %.17g",
                    key.c_str(), device, outcomes[i].seconds,
                    it->second.first.c_str(), it->second.second);
      report.mismatch(buffer);
    }
  }
  const PassSummary summary = summarize(launches, outcomes, golden);
  for (const auto& [mode, expected] : golden.total) {
    const auto it = summary.total.find(mode);
    if (it == summary.total.end() || !sameSeconds(it->second, expected)) {
      report.mismatch("total simulated seconds, " + mode);
    }
  }
  for (const auto& [mode, expected] : golden.speedup) {
    const auto it = summary.speedup.find(mode);
    if (it == summary.speedup.end() || !sameSeconds(it->second, expected)) {
      report.mismatch("model-guided geomean speedup, " + mode);
    }
  }
  return summary;
}

}  // namespace

void runPaperSuite(const Options& options, Report& report) {
  const Golden golden = readGolden(options.goldenPath);
  const std::vector<Launch> launches = suiteLaunches();
  std::vector<std::size_t> order(launches.size());
  std::iota(order.begin(), order.end(), 0);
  support::SplitMix64 rng(options.seed);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.nextBelow(i + 1)]);
  }

  Tracer tracer;
  ThreadTrace* setupTrace = options.trace ? &tracer.thread() : nullptr;
  Fixture suite;
  const double setupSeconds =
      setUpRuntime(suite, /*withSession=*/false, {}, setupTrace);
  runtime::TargetRuntime& rt = *suite.rt;
  const runtime::RuntimeOptions platform = platformOptions();
  const cpusim::CpuSimulator cpuSim(platform.cpuSim, platform.cpuSimThreads);
  const gpusim::GpuSimulator gpuSim(platform.gpuSim);

  // What a run of passes measured, per launch (in launch-list order), one
  // value per pass.
  struct Passes {
    std::vector<std::vector<double>> launchNs;  ///< the launch() call
    std::vector<std::vector<double>> opNs;      ///< store set-up + launch
    /// Traced passes only: the replayed simulator and decision.
    std::vector<std::vector<double>> partsNs;
    std::vector<double> walls;
    PassSummary summary;
  };

  std::uint64_t request = 0;
  // One closed-loop pass over every launch; returns its wall seconds.
  const auto pass = [&](ThreadTrace* trace, Passes& passes,
                        std::vector<Outcome>& outcomes) {
    pinThread(passes.walls.size());
    const std::int64_t passStart = nowNs();
    for (const std::size_t index : order) {
      const Launch& launch = launches[index];
      request += 1;
      const std::int64_t opStart = nowNs();
      if (trace != nullptr) trace->open(kSpanOp, request, opStart);
      ir::ArrayStore store;
      {
        Span span(trace, kSpanStore, request);
        store = freshStore(launch);
      }
      const std::int64_t t0 = nowNs();
      runtime::LaunchRecord record;
      {
        Span span(trace, kSpanLaunch, request);
        record = rt.launch(launch.kernel->name, launch.bindings, store,
                           runtime::Policy::ModelGuided);
      }
      const std::int64_t t1 = nowNs();
      if (trace != nullptr) trace->close(t1);
      passes.launchNs[index].push_back(static_cast<double>(t1 - t0));
      passes.opNs[index].push_back(static_cast<double>(t1 - opStart));
      report.attempt();
      if (record.shed || !record.decision.valid ||
          record.fallbackReason != runtime::FallbackReason::None) {
        report.failure(launch.kernel->name + ": degraded launch");
      }
      outcomes[index] = {record.chosen, record.actualSeconds};
      if (trace == nullptr) continue;

      // Replays outside the launch span: the chosen simulator on the same
      // kernel and bindings, and the decision, so the launch span can be
      // split into simulator, decision and the rest. The launch's store is
      // freed first, so the replay's store reuses its memory, as the
      // launch's reused the previous launch's.
      store.clear();
      store = freshStore(launch);
      double replayed = 0.0;
      const std::int64_t replayStart = nowNs();
      if (record.chosen == runtime::Device::Gpu) {
        Span span(trace, kSpanGpuSim, request);
        replayed = gpuSim.simulate(*launch.kernel, launch.bindings, store)
                       .totalSeconds;
      } else {
        Span span(trace, kSpanCpuSim, request);
        replayed =
            cpuSim.simulate(*launch.kernel, launch.bindings, store).seconds;
      }
      if (replayed != record.actualSeconds) {
        report.mismatch(launch.kernel->name + ": replayed simulation differs");
      }
      {
        Span span(trace, kSpanDecide, request);
        (void)rt.decide(launch.kernel->name, launch.bindings);
      }
      passes.partsNs[index].push_back(
          static_cast<double>(nowNs() - replayStart));
    }
    return static_cast<double>(nowNs() - passStart) * 1e-9;
  };

  // Passes until the time is spent; each pass is checked after it ends.
  const auto runPasses = [&](ThreadTrace* trace, double seconds) {
    Passes passes;
    passes.launchNs.resize(launches.size());
    passes.opNs.resize(launches.size());
    passes.partsNs.resize(launches.size());
    double spent = 0.0;
    while (passes.walls.empty() ||
           (spent < seconds && passes.walls.size() < kMaxPasses)) {
      std::vector<Outcome> outcomes(launches.size());
      passes.walls.push_back(pass(trace, passes, outcomes));
      spent += passes.walls.back();
      passes.summary = checkPass(launches, outcomes, golden, report);
    }
    return passes;
  };

  // One untimed pass first: the allocator and the caches settle, and the
  // first launches' decision-cache misses stay out of the timed passes.
  runPasses(nullptr, 0.0);
  if (!options.trace) {
    Passes timed = runPasses(nullptr, options.seconds);
    report.metric("setup_s", setupSeconds, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    // A pass is the same 48 launches every time, so each launch's time is
    // taken over the passes from the fast end (kFastShare), as the other
    // workloads take theirs over windows, and the suite's figures come from
    // those 48 times: launches per second of the launch operations, and
    // quantiles over the launch() calls.
    double opSeconds = 0.0;
    for (const double ns : fastTimes(timed.opNs)) opSeconds += ns * 1e-9;
    report.metric("decisions_per_s",
                  static_cast<double>(launches.size()) / opSeconds, "1/s");
    const std::vector<double> launchTimes = fastTimes(timed.launchNs);
    report.metric("lat_p50_us", quantileOf(launchTimes, 0.50) * 1e-3, "us");
    report.metric("lat_p99_us", quantileOf(launchTimes, 0.99) * 1e-3, "us");
    report.detail("suite_wall_s", median(timed.walls), "s");
    report.detail("passes", static_cast<double>(timed.walls.size()), "count");
    for (const auto& [mode, seconds] : timed.summary.total) {
      report.detail("simulated_s." + mode, seconds, "s");
    }
    for (const auto& [mode, speedup] : timed.summary.speedup) {
      report.detail("model_guided_speedup." + mode, speedup, "x");
    }
    return;
  }

  // Traced run: untraced passes for half the time, then traced passes for
  // the other half; per-layer numbers come from the traced ones.
  Passes untraced = runPasses(nullptr, options.seconds / 2);
  const runtime::DecisionCache::Stats cacheBefore =
      cacheStats(rt, suite.regions);
  ThreadTrace& trace = tracer.thread();
  Passes traced = runPasses(&trace, options.seconds / 2);
  const runtime::DecisionCache::Stats cacheAfter =
      cacheStats(rt, suite.regions);

  LayerValues layers;
  setSetupLayers(tracer, layers);
  setCacheLayers(cacheBefore, cacheAfter, layers);
  const auto passes = static_cast<double>(traced.walls.size());
  const auto perPass = [&](const char* name) {
    return static_cast<double>(tracer.totals(name).totalNs) * 1e-9 / passes;
  };
  const SpanTotals op = tracer.totals(kSpanOp);
  const SpanTotals decide = tracer.totals(kSpanDecide);
  layers.set("polybench.store_init_s", perPass(kSpanStore));
  layers.set("cpusim.simulate_s", perPass(kSpanCpuSim));
  layers.set("gpusim.simulate_s", perPass(kSpanGpuSim));
  layers.set("cpusim.simulate_calls",
             static_cast<double>(tracer.totals(kSpanCpuSim).count) / passes);
  layers.set("gpusim.simulate_calls",
             static_cast<double>(tracer.totals(kSpanGpuSim).count) / passes);
  layers.set("runtime.decide_ns",
             static_cast<double>(decide.totalNs) /
                 static_cast<double>(std::max<std::uint64_t>(1, decide.count)));
  layers.set("runtime.decide_calls", static_cast<double>(decide.count));
  // The launch span minus its simulator and decision replays.
  const double launchOverhead = perPass(kSpanLaunch) - perPass(kSpanCpuSim) -
                                perPass(kSpanGpuSim) - perPass(kSpanDecide);
  layers.set("runtime.launch_overhead_s", launchOverhead);
  // Tracing overhead on the launch call as the caller times it.
  layers.set("bench.trace_overhead_pct",
             100.0 * (quantileOf(fastTimes(traced.launchNs), 0.5) /
                          quantileOf(fastTimes(untraced.launchNs), 0.5) -
                      1.0));

  // Attribution. Per pass, a launch operation is its store span plus its
  // launch span; the launch span holds the simulator, the decision and the
  // launch path's own writes (log, admission, health, policy feedback),
  // which no replay covers: that last part is what the measured layers
  // leave unexplained. Check per launch that the replayed simulator and
  // decision fit inside the launch span, each taken over the traced passes
  // like the launch times above, within kReplayMargin: a launch that broke
  // this would mean the replay does not repeat the launch's work, or the
  // launch span misses part of it.
  const double opPerPass = static_cast<double>(op.totalNs) * 1e-9 / passes;
  const double unexplainedPct = 100.0 * launchOverhead / opPerPass;
  layers.set("bench.unexplained_pct", unexplainedPct);
  std::size_t breaks = 0;
  std::string firstBreak;
  const std::vector<double> launchFast = fastTimes(traced.launchNs);
  const std::vector<double> partsFast = fastTimes(traced.partsNs);
  for (std::size_t i = 0; i < launches.size(); ++i) {
    if (partsFast[i] > launchFast[i] * (1.0 + kReplayMargin) + kReplaySlackNs) {
      if (breaks++ == 0) {
        char buffer[160];
        std::snprintf(buffer, sizeof(buffer),
                      "%s/%s: simulator + decision %.0f ns, launch %.0f ns",
                      launches[i].mode.c_str(),
                      launches[i].kernel->name.c_str(), partsFast[i],
                      launchFast[i]);
        firstBreak = buffer;
      }
    }
  }
  layers.set("bench.attribution_breaks", static_cast<double>(breaks));
  std::fprintf(stderr,
               "perfbench: attribution per pass: launch op %.6f s = store "
               "%.6f + cpusim %.6f + gpusim %.6f + decide %.6f + unexplained "
               "launch overhead %.6f (%.3f%%) + glue %.6f; %zu of %zu "
               "launches exceed their launch span\n",
               opPerPass, perPass(kSpanStore), perPass(kSpanCpuSim),
               perPass(kSpanGpuSim), perPass(kSpanDecide), launchOverhead,
               unexplainedPct,
               opPerPass - perPass(kSpanStore) - perPass(kSpanLaunch), breaks,
               launches.size());
  report.note("attribution",
              breaks == 0 ? "ok"
                          : std::to_string(breaks) +
                                " launches: replayed parts exceed the launch "
                                "span, first " + firstBreak);

  std::vector<workload::Item> items;
  for (const Launch& launch : launches) {
    items.push_back({launch.kernel->name, launch.bindings, 0.0});
  }
  probeLayers(rt, *suite.database, suite.regions, items, layers, report);
  layers.emit(report);
  if (!tracer.write(options.outDir + "/paper-suite.spans.csv")) {
    report.note("spans", "could not write the span file");
  }
}

int writePaperSuiteGolden(const Options& options) {
  const std::vector<Launch> launches = suiteLaunches();
  Fixture suite;
  setUpRuntime(suite, /*withSession=*/false, {}, nullptr);
  std::vector<Outcome> outcomes;
  Golden golden;
  for (const Launch& launch : launches) {
    ir::ArrayStore store = freshStore(launch);
    const runtime::LaunchRecord record =
        suite.rt->launch(launch.kernel->name, launch.bindings, store,
                         runtime::Policy::ModelGuided);
    outcomes.push_back({record.chosen, record.actualSeconds});
    store = freshStore(launch);
    golden.cpuOnly[launch.mode + "/" + launch.benchmark->name()] +=
        suite.rt->measure(launch.kernel->name, launch.bindings, store,
                          runtime::Device::Cpu);
  }
  const PassSummary summary = summarize(launches, outcomes, golden);

  std::FILE* out = std::fopen(options.writeGolden.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.writeGolden.c_str());
    return 1;
  }
  std::fputs(
      "# paper-suite golden: ModelGuided launches on POWER9 + V100\n"
      "# (160-thread host), benchmark mode at size/4. Regenerate only at a\n"
      "# commit whose outputs are trusted: osel_perfbench --workload\n"
      "# paper-suite --write-golden FILE\n",
      out);
  for (std::size_t i = 0; i < launches.size(); ++i) {
    std::fprintf(out, "launch %s %s %s %.17g\n", launches[i].mode.c_str(),
                 launches[i].kernel->name.c_str(),
                 deviceName(outcomes[i].device), outcomes[i].seconds);
  }
  for (const auto& [key, seconds] : golden.cpuOnly) {
    const std::size_t slash = key.find('/');
    std::fprintf(out, "cpu_only %s %s %.17g\n", key.substr(0, slash).c_str(),
                 key.substr(slash + 1).c_str(), seconds);
  }
  for (const auto& [mode, seconds] : summary.total) {
    std::fprintf(out, "total %s %.17g\n", mode.c_str(), seconds);
  }
  for (const auto& [mode, speedup] : summary.speedup) {
    std::fprintf(out, "speedup %s %.17g\n", mode.c_str(), speedup);
  }
  return std::fclose(out) == 0 ? 0 : 1;
}

}  // namespace perfbench
