#include "layers.h"

#include <array>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "cpumodel/cpu_model.h"
#include "gpumodel/gpu_model.h"
#include "service/codec.h"

namespace perfbench {

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// The per-layer list, in print order. BENCHMARK.json's per_layer names the
// same metrics.
constexpr std::array kLayerMetrics{
    LayerMetric{"compiler.compile_all_s", "s"},
    LayerMetric{"runtime.register_s", "s"},
    LayerMetric{"runtime.decide_ns", "ns"},
    LayerMetric{"runtime.decide_calls", "count"},
    LayerMetric{"runtime.decide_batch_ns_per_row", "ns"},
    LayerMetric{"runtime.cache_hit_ratio", "ratio"},
    LayerMetric{"runtime.cache_evictions", "count"},
    LayerMetric{"runtime.cache_find_ns", "ns"},
    LayerMetric{"runtime.cache_insert_ns", "ns"},
    LayerMetric{"runtime.selector_decide_ns", "ns"},
    LayerMetric{"runtime.plan_bind_ns", "ns"},
    LayerMetric{"runtime.plan_complete_ns", "ns"},
    LayerMetric{"cpumodel.predict_ns", "ns"},
    LayerMetric{"gpumodel.predict_ns", "ns"},
    LayerMetric{"runtime.launch_overhead_s", "s"},
    LayerMetric{"cpusim.simulate_s", "s"},
    LayerMetric{"cpusim.simulate_calls", "count"},
    LayerMetric{"gpusim.simulate_s", "s"},
    LayerMetric{"gpusim.simulate_calls", "count"},
    LayerMetric{"polybench.store_init_s", "s"},
    LayerMetric{"obs.session_ns_per_decide", "ns"},
    LayerMetric{"service.codec_encode_ns", "ns"},
    LayerMetric{"service.codec_decode_ns", "ns"},
    LayerMetric{"service.decode_us_p50", "us"},
    LayerMetric{"service.decode_us_p99", "us"},
    LayerMetric{"service.decide_us_p50", "us"},
    LayerMetric{"service.decide_us_p99", "us"},
    LayerMetric{"service.encode_us_p50", "us"},
    LayerMetric{"service.encode_us_p99", "us"},
    LayerMetric{"service.send_us_p50", "us"},
    LayerMetric{"service.send_us_p99", "us"},
    LayerMetric{"service.request_us_p50", "us"},
    LayerMetric{"service.request_us_p99", "us"},
    LayerMetric{"service.transport_us_p50", "us"},
    LayerMetric{"service.gen_late_p99_us", "us"},
    LayerMetric{"service.backlog_max", "count"},
    LayerMetric{"bench.trace_overhead_pct", "%"},
    LayerMetric{"bench.unexplained_pct", "%"},
    LayerMetric{"bench.attribution_breaks", "count"},
};

/// Times `body` (one pass over the probe items) repeatedly for at least
/// kProbeNs and kProbeReps passes; returns the median nanoseconds per item.
constexpr std::int64_t kProbeNs = 40'000'000;
constexpr int kProbeReps = 5;

template <class Prepare, class Body>
double nsPerItem(std::size_t items, Prepare&& prepare, Body&& body) {
  std::vector<double> perItem;
  const std::int64_t start = nowNs();
  while (perItem.size() < static_cast<std::size_t>(kProbeReps) ||
         nowNs() - start < kProbeNs) {
    prepare();
    const std::int64_t t0 = nowNs();
    body();
    perItem.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(items));
  }
  return median(perItem);
}

/// Probe items are capped so every probe stays in the tens of ms.
constexpr std::size_t kProbeItems = 4096;

/// One probe item: the compiled plan and everything derived from it.
struct ProbeRow {
  const workload::Item* item = nullptr;
  const runtime::CompiledRegionPlan* plan = nullptr;
  std::vector<std::int64_t> values;
  std::uint64_t mask = 0;
  cpumodel::CpuWorkload cpu;
  gpumodel::GpuWorkload gpu;
  runtime::Decision decision;
};

}  // namespace

void LayerValues::set(const std::string& name, double value) {
  for (const LayerMetric& m : kLayerMetrics) {
    if (name == m.name) {
      values_[name] = value;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown layer metric " + name);
}

void LayerValues::emit(Report& report) const {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values_.find(m.name);
    report.metric(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
  }
}

pad::AttributeDatabase compileTraced(std::span<const ir::TargetRegion> regions,
                                     ThreadTrace* trace) {
  Span span(trace, kSpanCompileAll, 0);
  return compileSuite(regions);
}

double setUpRuntime(Fixture& fixture, bool withSession,
                    std::span<const workload::Item> warm, ThreadTrace* trace) {
  const auto tearDown = [&] {
    fixture.rt.reset();
    fixture.session.reset();
    fixture.database.reset();
  };
  return medianSetupSeconds(kSetupReps, tearDown, [&](int) {
    Span span(trace, kSpanSetup, 0);
    fixture.database = std::make_unique<pad::AttributeDatabase>(
        compileTraced(fixture.regions, trace));
    runtime::RuntimeOptions options = platformOptions();
    if (withSession) {
      fixture.session = std::make_unique<obs::TraceSession>();
      options.trace = fixture.session.get();
    }
    fixture.rt =
        std::make_unique<runtime::TargetRuntime>(*fixture.database, options);
    for (const ir::TargetRegion& region : fixture.regions) {
      Span reg(trace, kSpanRegister, 0);
      fixture.rt->registerRegion(region);
    }
    for (const workload::Item& item : warm) {
      (void)fixture.rt->decide(item.region, item.bindings);
    }
  });
}

void setSetupLayers(const Tracer& tracer, LayerValues& layers) {
  const SpanTotals setups = tracer.totals(kSpanSetup);
  if (setups.count == 0) return;
  const double n = static_cast<double>(setups.count);
  layers.set("compiler.compile_all_s",
             static_cast<double>(tracer.totals(kSpanCompileAll).totalNs) *
                 1e-9 / n);
  layers.set("runtime.register_s",
             static_cast<double>(tracer.totals(kSpanRegister).totalNs) * 1e-9 /
                 n);
}

runtime::DecisionCache::Stats cacheStats(
    const runtime::TargetRuntime& rt,
    std::span<const ir::TargetRegion> regions) {
  runtime::DecisionCache::Stats sum;
  for (const ir::TargetRegion& region : regions) {
    const runtime::DecisionCache::Stats s = rt.decisionCacheStats(region.name);
    sum.lookups += s.lookups;
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.evictions += s.evictions;
    sum.insertions += s.insertions;
  }
  return sum;
}

void setCacheLayers(const runtime::DecisionCache::Stats& before,
                    const runtime::DecisionCache::Stats& after,
                    LayerValues& layers) {
  const auto lookups = static_cast<double>(after.lookups - before.lookups);
  const auto hits = static_cast<double>(after.hits - before.hits);
  layers.set("runtime.cache_hit_ratio", lookups > 0.0 ? hits / lookups : 0.0);
  layers.set("runtime.cache_evictions",
             static_cast<double>(after.evictions - before.evictions));
}

void probeLayers(runtime::TargetRuntime& rt,
                 const pad::AttributeDatabase& database,
                 std::span<const ir::TargetRegion> regions,
                 std::span<const workload::Item> items, LayerValues& layers,
                 Report& report) {
  if (items.size() > kProbeItems) items = items.first(kProbeItems);
  const runtime::OffloadSelector& selector = rt.selector();
  const runtime::SelectorConfig& config = selector.config();

  std::vector<ProbeRow> rows;
  rows.reserve(items.size());
  for (const workload::Item& item : items) {
    ProbeRow row;
    row.item = &item;
    row.plan = rt.plan(item.region);
    if (row.plan == nullptr || !row.plan->fastPathUsable()) {
      report.failure("probe: no usable compiled plan for " + item.region);
      return;
    }
    row.values.assign(row.plan->slotCount(), 0);
    if (!row.plan->bindSlots(item.bindings, row.values, row.mask)) {
      report.failure("probe: unbound symbols for " + item.region);
      return;
    }
    row.plan->completeWorkloads(row.values, row.mask, row.cpu, row.gpu);
    row.decision = selector.decide(runtime::RegionHandle(*row.plan),
                                   item.bindings);
    rows.push_back(std::move(row));
  }
  const std::size_t n = rows.size();
  const auto none = [] {};
  std::uint64_t sink = 0;

  std::vector<std::int64_t> scratch(runtime::CompiledRegionPlan::kMaxSlots);
  layers.set("runtime.plan_bind_ns", nsPerItem(n, none, [&] {
               for (const ProbeRow& row : rows) {
                 std::uint64_t mask = 0;
                 sink += row.plan->bindSlots(row.item->bindings, scratch, mask);
               }
             }));
  layers.set("runtime.plan_complete_ns", nsPerItem(n, none, [&] {
               cpumodel::CpuWorkload cpu;
               gpumodel::GpuWorkload gpu;
               for (const ProbeRow& row : rows) {
                 row.plan->completeWorkloads(row.values, row.mask, cpu, gpu);
                 sink += static_cast<std::uint64_t>(cpu.parallelTripCount);
               }
             }));
  const cpumodel::CpuCostModel cpuModel(config.cpuParams, config.cpuThreads);
  const gpumodel::GpuCostModel gpuModel(config.gpuParams);
  layers.set("cpumodel.predict_ns", nsPerItem(n, none, [&] {
               for (const ProbeRow& row : rows) {
                 sink += cpuModel.predict(row.cpu).seconds > 0.0;
               }
             }));
  layers.set("gpumodel.predict_ns", nsPerItem(n, none, [&] {
               for (const ProbeRow& row : rows) {
                 sink += gpuModel.predict(row.gpu).totalSeconds > 0.0;
               }
             }));
  layers.set("runtime.selector_decide_ns", nsPerItem(n, none, [&] {
               for (const ProbeRow& row : rows) {
                 sink += selector
                             .decide(runtime::RegionHandle(*row.plan),
                                     row.item->bindings)
                             .valid;
               }
             }));

  // A standalone cache per region, as the runtime keeps them.
  const std::size_t capacity = 64;
  std::unordered_map<const runtime::CompiledRegionPlan*,
                     std::unique_ptr<runtime::DecisionCache>>
      caches;
  const auto freshCaches = [&] {
    caches.clear();
    for (const ProbeRow& row : rows) {
      auto& cache = caches[row.plan];
      if (cache == nullptr) {
        cache = std::make_unique<runtime::DecisionCache>(capacity);
      }
    }
  };
  const auto insertAll = [&] {
    for (const ProbeRow& row : rows) {
      caches[row.plan]->insert(row.mask, row.values, row.decision);
    }
  };
  layers.set("runtime.cache_insert_ns", nsPerItem(n, freshCaches, insertAll));
  layers.set("runtime.cache_find_ns",
             nsPerItem(
                 n, [&] { freshCaches(), insertAll(); },
                 [&] {
                   runtime::Decision out;
                   for (const ProbeRow& row : rows) {
                     sink += caches[row.plan]->find(row.mask, row.values, out);
                   }
                 }));

  // The wire codec on this workload's frames: a request and its reply.
  std::string buffer;
  buffer.reserve(1 << 12);
  service::DecideRequestView requestView;
  service::DecisionView decisionView;
  std::vector<std::string> requestFrames;
  std::vector<std::string> decisionFrames;
  for (std::size_t i = 0; i < n; ++i) {
    std::string frame;
    service::encodeDecideRequest(frame, i, rows[i].item->region,
                                 rows[i].item->bindings);
    requestFrames.push_back(frame.substr(sizeof(service::FrameHeader)));
    frame.clear();
    service::encodeDecision(frame, i, rows[i].decision);
    decisionFrames.push_back(frame.substr(sizeof(service::FrameHeader)));
  }
  layers.set("service.codec_encode_ns", nsPerItem(n, none, [&] {
               for (std::size_t i = 0; i < n; ++i) {
                 buffer.clear();
                 service::encodeDecideRequest(buffer, i, rows[i].item->region,
                                              rows[i].item->bindings);
                 service::encodeDecision(buffer, i, rows[i].decision);
                 sink += buffer.size();
               }
             }));
  layers.set("service.codec_decode_ns", nsPerItem(n, none, [&] {
               for (std::size_t i = 0; i < n; ++i) {
                 service::parseDecideRequest(requestFrames[i], requestView);
                 service::parseDecision(decisionFrames[i], decisionView);
                 sink += requestView.requestId + decisionView.requestId;
               }
             }));

  // decide() on one thread with and without an attached TraceSession.
  obs::TraceSession session;
  runtime::RuntimeOptions tracedOptions = platformOptions();
  tracedOptions.trace = &session;
  runtime::TargetRuntime plain(database, platformOptions());
  runtime::TargetRuntime traced(database, tracedOptions);
  for (const ir::TargetRegion& region : regions) {
    plain.registerRegion(region);
    traced.registerRegion(region);
  }
  const auto decideAll = [&rows, &sink](runtime::TargetRuntime& target) {
    return [&rows, &sink, rt = &target] {
      for (const ProbeRow& row : rows) {
        sink += rt->decide(row.item->region, row.item->bindings).valid;
      }
    };
  };
  decideAll(plain)();
  decideAll(traced)();
  const double plainNs = nsPerItem(n, none, decideAll(plain));
  const double tracedNs = nsPerItem(n, none, decideAll(traced));
  layers.set("obs.session_ns_per_decide", tracedNs - plainNs);

  if (sink == 0) report.note("probe", "empty");
}

}  // namespace perfbench
