// decide-hot and decide-cold: the in-process decide paths, two opposite
// uses of the same per-region decision cache.
//
// decide-hot: scalar TargetRuntime::decide from kHotThreads threads, closed
// loop, a Zipfian stream over the 24 regions x 4 recurring sizes, every key
// warm in the cache, an obs::TraceSession attached as in oseld. Cache hits
// under contention; the model layers do almost no work.
//
// decide-cold: TargetRuntime::decideBatch with kBatchRows-row calls from one
// thread, closed loop, a uniform stream where each region draws from
// kColdSizes distinct sizes, so almost every row misses the cache and
// inserts or evicts; no TraceSession, as in the paper's embedded runtime.
// This is where the compiled-plan engine and both cost models work.
//
// Both check every decision bit for bit against a single-threaded scalar
// decide() over the same stream on a runtime of its own.
#include <atomic>
#include <memory>
#include <thread>

#include "layers.h"
#include "polybench/polybench.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kHotThreads = 3;
/// Items per generated stream; the timed loop cycles through it. Small
/// enough that the stream stays in cache: the request data is the
/// benchmark's, and its memory traffic should not be what is measured.
constexpr std::size_t kHotItems = 1 << 12;
/// A region's key comes round again after about 680 draws of that region,
/// long after its 64-entry cache evicted it.
constexpr std::size_t kColdItems = 1 << 14;
constexpr std::size_t kColdSizes = 4096;
/// Cold sizes are drawn without repetition from [kColdMinSize,
/// kColdMinSize + kColdSizeRange).
constexpr std::int64_t kColdMinSize = 32;
constexpr std::int64_t kColdSizeRange = 16384;
constexpr std::size_t kBatchRows = 64;
constexpr std::size_t kColdBatches = kColdItems / kBatchRows;

constexpr const char* kSpanDecide = "runtime.decide";
constexpr const char* kSpanDecideBatch = "runtime.decide_batch";

std::uint64_t threadSeed(std::uint64_t seed, int thread) {
  return support::SplitMix64(seed + static_cast<std::uint64_t>(thread)).next();
}

/// One closed-loop caller: its stream, reference decisions and results.
struct Caller {
  std::vector<workload::Item> stream;
  std::vector<DecisionBits> reference;
  Windows windows;
  std::uint64_t mismatches = 0;
  std::uint64_t invalid = 0;
  std::string firstMismatch;
};

/// Runs every caller's decide() loop on its own thread for `seconds`, all
/// starting together.
void runHot(runtime::TargetRuntime& rt, std::vector<Caller>& callers,
            double seconds, Tracer* tracer) {
  std::vector<ThreadTrace*> traces(callers.size(), nullptr);
  if (tracer != nullptr) {
    for (ThreadTrace*& trace : traces) trace = &tracer->thread();
  }
  const auto length = static_cast<std::int64_t>(seconds * 1e9);
  for (Caller& caller : callers) caller.windows = Windows(length);
  std::atomic<int> ready{0};
  std::atomic<std::int64_t> startNs{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < callers.size(); ++t) {
    threads.emplace_back([&, t] {
      Caller& caller = callers[t];
      ThreadTrace* trace = traces[t];
      const std::size_t mask = caller.stream.size() - 1;
      ready.fetch_add(1);
      std::int64_t start = 0;
      while ((start = startNs.load(std::memory_order_acquire)) == 0) {
      }
      caller.windows.start(start);
      for (std::uint64_t i = 0;; ++i) {
        const std::size_t at = i & mask;
        const workload::Item& item = caller.stream[at];
        const std::int64_t t0 = nowNs();
        if (trace != nullptr) trace->open(kSpanDecide, i, t0);
        const runtime::Decision decision =
            rt.decide(item.region, item.bindings);
        const std::int64_t t1 = nowNs();
        if (trace != nullptr) trace->close(t1);
        caller.windows.add(caller.windows.at(t1), t1 - t0);
        if (!decision.valid) caller.invalid += 1;
        const DecisionBits bits = bitsOf(decision);
        if (bits != caller.reference[at]) {
          if (caller.mismatches++ == 0) {
            caller.firstMismatch = item.region + ": " + describe(bits) +
                                   ", reference " +
                                   describe(caller.reference[at]);
          }
        }
        if (t1 - start >= length) break;
      }
    });
  }
  while (ready.load() < static_cast<int>(callers.size())) {
  }
  startNs.store(nowNs(), std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
}

/// Folds the callers' accounting into the report and merges their
/// windows; the callers start afresh.
Windows account(std::vector<Caller>& callers, Report& report) {
  Windows merged;
  for (Caller& caller : callers) {
    report.attempt(caller.windows.decisions());
    for (std::uint64_t i = 0; i < caller.invalid; ++i) {
      report.failure("invalid decision");
    }
    for (std::uint64_t i = 0; i < caller.mismatches; ++i) {
      report.mismatch(caller.firstMismatch);
    }
    merged.merge(caller.windows);
    caller.windows = Windows();
    caller.mismatches = caller.invalid = 0;
  }
  return merged;
}

void endToEnd(Report& report, double setupSeconds, Windows& windows) {
  report.metric("setup_s", setupSeconds, "s");
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.metric("decisions_per_s", windows.fastRate(), "1/s");
  report.metric("lat_p50_us", windows.fastQuantile(0.50) * 1e-3, "us");
  report.metric("lat_p99_us", windows.fastQuantile(0.99) * 1e-3, "us");
  report.detail("decisions", static_cast<double>(windows.decisions()),
                "count");
  report.detail("latency_samples", static_cast<double>(windows.samples()),
                "count");
}

}  // namespace

void runDecideHot(const Options& options, Report& report) {
  Fixture fixture;
  std::vector<workload::Item> warm;
  for (const workload::Candidate& candidate : hotCandidates()) {
    for (const symbolic::Bindings& bindings : candidate.bindingChoices) {
      warm.push_back({candidate.region, bindings, 0.0});
    }
  }
  Tracer tracer;
  const double setupSeconds =
      setUpRuntime(fixture, /*withSession=*/true, warm,
                   options.trace ? &tracer.thread() : nullptr);
  runtime::TargetRuntime& rt = *fixture.rt;

  std::vector<Caller> callers(kHotThreads);
  for (int t = 0; t < kHotThreads; ++t) {
    callers[t].stream = hotStream(threadSeed(options.seed, t), kHotItems);
    callers[t].reference = referenceDecisions(
        *fixture.database, fixture.regions, callers[t].stream);
  }

  if (!options.trace) {
    runHot(rt, callers, options.seconds, nullptr);
    Windows windows = account(callers, report);
    endToEnd(report, setupSeconds, windows);
    return;
  }

  runHot(rt, callers, options.seconds / 2, nullptr);
  Windows untraced = account(callers, report);
  const runtime::DecisionCache::Stats before =
      cacheStats(rt, fixture.regions);
  runHot(rt, callers, options.seconds / 2, &tracer);
  Windows traced = account(callers, report);
  LayerValues layers;
  setSetupLayers(tracer, layers);
  setCacheLayers(before, cacheStats(rt, fixture.regions), layers);
  const SpanTotals decide = tracer.totals(kSpanDecide);
  layers.set("runtime.decide_ns", static_cast<double>(decide.selfNs) /
                                      static_cast<double>(decide.count));
  layers.set("runtime.decide_calls", static_cast<double>(decide.count));
  layers.set("bench.trace_overhead_pct",
             100.0 * (traced.fastQuantile(0.5) /
                          untraced.fastQuantile(0.5) -
                      1.0));
  probeLayers(rt, *fixture.database, fixture.regions, callers[0].stream,
              layers, report);
  layers.emit(report);
  if (!tracer.write(options.outDir + "/decide-hot.spans.csv")) {
    report.note("spans", "could not write the span file");
  }
}

void runDecideCold(const Options& options, Report& report) {
  // Each benchmark's kernels draw from kColdSizes distinct sizes.
  support::SplitMix64 rng(threadSeed(options.seed, 100));
  std::vector<workload::Candidate> candidates;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    std::vector<std::int64_t> pool(kColdSizeRange);
    for (std::int64_t i = 0; i < kColdSizeRange; ++i) {
      pool[i] = kColdMinSize + i;
    }
    std::vector<symbolic::Bindings> choices;
    for (std::size_t i = 0; i < kColdSizes; ++i) {
      std::swap(pool[i], pool[i + rng.nextBelow(pool.size() - i)]);
      choices.push_back(benchmark.bindings(pool[i]));
    }
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      candidates.push_back({kernel.name, choices});
    }
  }
  workload::GeneratorOptions generatorOptions;
  generatorOptions.seed = options.seed;
  workload::Generator generator(workload::Shape::Uniform, std::move(candidates),
                                generatorOptions);
  const std::vector<workload::Item> stream = generator.take(kColdItems);
  std::vector<runtime::DecideRequest> requests;
  requests.reserve(stream.size());
  for (const workload::Item& item : stream) {
    requests.push_back({item.region, &item.bindings});
  }

  Fixture fixture;
  Tracer tracer;
  const double setupSeconds =
      setUpRuntime(fixture, /*withSession=*/false, {},
                   options.trace ? &tracer.thread() : nullptr);
  runtime::TargetRuntime& rt = *fixture.rt;
  const std::vector<DecisionBits> reference =
      referenceDecisions(*fixture.database, fixture.regions, stream);

  std::vector<runtime::Decision> out(kBatchRows);
  std::uint64_t batch = 0;
  // Closed loop of decideBatch calls for `seconds`. The stream is a cycle
  // of kColdBatches fixed batches, each the same rows every cycle and, in
  // the steady state, the same misses and evictions; each batch's
  // latencies are kept apart (RepeatTimes).
  const auto run = [&](double seconds, ThreadTrace* trace,
                       RepeatTimes& times) {
    const auto length = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t start = nowNs();
    std::int64_t window = 0;
    pinThread(0);
    for (;;) {
      const std::size_t index = batch % kColdBatches;
      const std::size_t offset = index * kBatchRows;
      const std::span<const runtime::DecideRequest> rows(
          requests.data() + offset, kBatchRows);
      const std::int64_t t0 = nowNs();
      if (trace != nullptr) trace->open(kSpanDecideBatch, batch, t0);
      rt.decideBatch(rows, out);
      const std::int64_t t1 = nowNs();
      if (trace != nullptr) trace->close(t1);
      times.add(index, t1 - t0);
      if ((t1 - start) / Windows::kWindowNs != window) {
        window = (t1 - start) / Windows::kWindowNs;
        pinThread(static_cast<std::size_t>(window));
      }
      batch += 1;
      report.attempt(kBatchRows);
      for (std::size_t r = 0; r < kBatchRows; ++r) {
        if (!out[r].valid) report.failure("invalid decision");
        const DecisionBits bits = bitsOf(out[r]);
        if (bits != reference[offset + r]) {
          report.mismatch(stream[offset + r].region + ": " + describe(bits) +
                          ", reference " + describe(reference[offset + r]));
        }
      }
      if (t1 - start >= length) return;
    }
  };

  if (!options.trace) {
    RepeatTimes times(kColdBatches);
    const std::uint64_t before = batch;
    run(options.seconds, nullptr, times);
    const std::vector<double> fast = times.fastTimes();
    double sumNs = 0.0;
    for (const double ns : fast) sumNs += ns;
    report.metric("setup_s", setupSeconds, "s");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
    report.metric("decisions_per_s",
                  static_cast<double>(kBatchRows * fast.size()) /
                      (sumNs * 1e-9),
                  "1/s");
    report.metric("lat_p50_us", quantileOf(fast, 0.50) * 1e-3, "us");
    report.metric("lat_p99_us", quantileOf(fast, 0.99) * 1e-3, "us");
    report.detail("decisions",
                  static_cast<double>((batch - before) * kBatchRows), "count");
    report.detail("batches", static_cast<double>(fast.size()), "count");
    SampleLog all(0);
    times.pool(all);
    report.detail("lat_p50_us.all", all.quantile(0.50) * 1e-3, "us");
    report.detail("lat_p99_us.all", all.quantile(0.99) * 1e-3, "us");
    return;
  }

  RepeatTimes untraced(kColdBatches);
  run(options.seconds / 2, nullptr, untraced);
  const runtime::DecisionCache::Stats before =
      cacheStats(rt, fixture.regions);
  ThreadTrace& trace = tracer.thread();
  RepeatTimes traced(kColdBatches);
  run(options.seconds / 2, &trace, traced);
  LayerValues layers;
  setSetupLayers(tracer, layers);
  setCacheLayers(before, cacheStats(rt, fixture.regions), layers);
  const SpanTotals batches = tracer.totals(kSpanDecideBatch);
  layers.set("runtime.decide_batch_ns_per_row",
             static_cast<double>(batches.selfNs) /
                 static_cast<double>(batches.count * kBatchRows));
  layers.set("bench.trace_overhead_pct",
             100.0 * (quantileOf(traced.fastTimes(), 0.5) /
                          quantileOf(untraced.fastTimes(), 0.5) -
                      1.0));
  probeLayers(rt, *fixture.database, fixture.regions, stream, layers, report);
  layers.emit(report);
  if (!tracer.write(options.outDir + "/decide-cold.spans.csv")) {
    report.note("spans", "could not write the span file");
  }
}

}  // namespace perfbench
