// perfbench/src/layers.h — the traced run's per-layer metrics, and the
// runtime set-up whose compile and register spans feed two of them.
//
// Every traced run prints the same list of layer metrics (kLayerMetrics,
// mirrored by BENCHMARK.json). A workload sets the ones its own spans and
// probes measure; a layer the workload never enters reads 0 (no time spent
// there, no calls made).
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>

#include "common.h"
#include "obs/trace.h"
#include "spans.h"

namespace perfbench {

class LayerValues {
 public:
  /// Sets a layer metric; the name must be one of kLayerMetrics.
  void set(const std::string& name, double value);
  /// Prints every layer metric, in list order, as the run's metrics.
  void emit(Report& report) const;

 private:
  std::map<std::string, double> values_;
};

// Span names shared by several workloads.
inline constexpr const char* kSpanSetup = "setup";
inline constexpr const char* kSpanCompileAll = "compiler.compile_all";
inline constexpr const char* kSpanRegister = "runtime.register";

/// compileSuite() inside a compiler.compile_all span.
[[nodiscard]] pad::AttributeDatabase compileTraced(
    std::span<const ir::TargetRegion> regions, ThreadTrace* trace);

/// A registered runtime and what it needs kept alive.
struct Fixture {
  std::vector<ir::TargetRegion> regions = suiteRegions();
  std::unique_ptr<pad::AttributeDatabase> database;
  std::unique_ptr<obs::TraceSession> session;
  std::unique_ptr<runtime::TargetRuntime> rt;
};

/// compileAll + runtime (with a TraceSession attached when `withSession`)
/// + registerRegion + a decide() of every `warm` item, kSetupReps times;
/// returns the median seconds and leaves the last set-up in `fixture`.
double setUpRuntime(Fixture& fixture, bool withSession,
                    std::span<const workload::Item> warm, ThreadTrace* trace);

/// Sets compiler.compile_all_s and runtime.register_s (per set-up) from the
/// set-up spans.
void setSetupLayers(const Tracer& tracer, LayerValues& layers);

/// Cache counters summed over every region of `rt`.
[[nodiscard]] runtime::DecisionCache::Stats cacheStats(
    const runtime::TargetRuntime& rt,
    std::span<const ir::TargetRegion> regions);
/// Sets runtime.cache_hit_ratio and runtime.cache_evictions from the
/// difference of two cacheStats() readings.
void setCacheLayers(const runtime::DecisionCache::Stats& before,
                    const runtime::DecisionCache::Stats& after,
                    LayerValues& layers);

/// Standalone probes over the workload's own requests, each timing one
/// layer's public function with nothing around it: plan binding and
/// completion, both cost models, the selector on the compiled plan, a
/// standalone DecisionCache, the wire codec, and decide() with and without
/// a TraceSession. `rt` supplies the compiled plans; `database` and
/// `regions` build the two extra runtimes of the session probe.
void probeLayers(runtime::TargetRuntime& rt,
                 const pad::AttributeDatabase& database,
                 std::span<const ir::TargetRegion> regions,
                 std::span<const workload::Item> items, LayerValues& layers,
                 Report& report);

}  // namespace perfbench
