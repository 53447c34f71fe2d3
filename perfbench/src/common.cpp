#include "common.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include "compiler/compiler.h"
#include "mca/machine_model.h"
#include "obs/quantile.h"
#include "polybench/polybench.h"

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

void appendJsonString(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void appendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  out += buffer;
}

void appendMetrics(std::string& out, const std::vector<Metric>& metrics) {
  out += '{';
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) out += ", ";
    first = false;
    appendJsonString(out, m.name);
    out += ": {\"value\": ";
    appendJsonNumber(out, m.value);
    out += ", \"unit\": ";
    appendJsonString(out, m.unit);
    out += '}';
  }
  out += '}';
}

constexpr std::size_t kFailuresShown = 20;

}  // namespace

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::detail(std::string name, double value, std::string unit) {
  details_.push_back({std::move(name), value, std::move(unit)});
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

void Report::failure(const std::string& what) {
  failed_ += 1;
  if (failures_.size() < kFailuresShown) {
    failures_.push_back(what);
    std::fprintf(stderr, "perfbench: failed: %s\n", what.c_str());
  }
}

void Report::mismatch(const std::string& what) {
  correct_ = false;
  failure("mismatch: " + what);
}

void Report::print(const Options& options) const {
  std::string line = "{\"workload\": ";
  appendJsonString(line, options.workload);
  line += ", \"seed\": " + std::to_string(options.seed);
  line += ", \"trace\": ";
  line += options.trace ? "1" : "0";
  line += ", \"provenance\": {\"build_type\": ";
  appendJsonString(line, PERFBENCH_BUILD_TYPE);
  line += ", \"cxx_flags\": ";
  appendJsonString(line, PERFBENCH_CXX_FLAGS);
  line += ", \"compiler\": ";
  appendJsonString(line, PERFBENCH_COMPILER);
  line += ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  line += ", \"seed\": " + std::to_string(options.seed);
  line += ", \"git_commit\": ";
  appendJsonString(line, options.commit);
  line += ", \"source_sha256\": ";
  appendJsonString(line, options.sourceDigest);
  line += "}, \"detail\": ";
  appendMetrics(line, details_);
  line += ", \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) line += ", ";
    appendJsonString(line, notes_[i].first);
    line += ": ";
    appendJsonString(line, notes_[i].second);
  }
  line += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) line += ", ";
    appendJsonString(line, failures_[i]);
  }
  line += "]}";
  std::puts(line.c_str());

  std::string result = "{\"correct\": ";
  result += correct_ ? "true" : "false";
  result += ", \"attempted\": " + std::to_string(attempted_);
  result += ", \"failed\": " + std::to_string(failed_);
  result += ", \"metrics\": ";
  appendMetrics(result, metrics_);
  result += '}';
  std::puts(result.c_str());
  std::fflush(stdout);
}

SampleLog::SampleLog(std::size_t capacity) : capacity_(capacity) {
  // Touch the buffer now, so how many samples a run stores does not change
  // its peak resident set.
  values_.resize(capacity_);
  values_.clear();
}

void SampleLog::add(double ns) {
  const std::uint64_t index = seen_++;
  if (index % stride_ != 0) return;
  if (values_.size() == capacity_) {
    // Keep the samples whose index is a multiple of the doubled stride:
    // those at even positions of the kept list.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < values_.size(); i += 2) {
      values_[kept++] = values_[i];
    }
    values_.resize(kept);
    stride_ *= 2;
    if (index % stride_ != 0) return;
  }
  values_.push_back(ns);
  sorted_ = false;
}

void SampleLog::merge(const SampleLog& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  seen_ += other.seen_;
  sorted_ = false;
}

double SampleLog::quantile(double q) {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  return obs::percentileOfSorted(values_, q);
}

double SampleLog::mean() const {
  if (values_.empty()) return std::nan("");
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

Windows::Windows(std::int64_t lengthNs, std::size_t samplesPerWindow) {
  if (lengthNs <= 0) return;
  const std::int64_t count =
      std::max<std::int64_t>(1, (lengthNs + kWindowNs / 2) / kWindowNs);
  sliceNs_ = lengthNs / count;
  decisions_.assign(static_cast<std::size_t>(count), 0);
  latency_.reserve(decisions_.size());
  for (std::int64_t w = 0; w < count; ++w) {
    latency_.emplace_back(samplesPerWindow);
  }
}

std::size_t Windows::at(std::int64_t atNs) const {
  if (atNs <= startNs_) return 0;
  const auto slice = static_cast<std::size_t>((atNs - startNs_) / sliceNs_);
  return std::min<std::size_t>(latency_.size() - 1, slice);
}

void Windows::add(std::size_t window, std::int64_t latencyNs,
                  std::uint64_t decisions) {
  latency_[window].add(latencyNs);
  decisions_[window] += decisions;
}

void Windows::merge(const Windows& other) {
  if (latency_.size() < other.latency_.size()) {
    latency_.resize(other.latency_.size(), SampleLog(0));
    decisions_.resize(other.decisions_.size(), 0);
    sliceNs_ = other.sliceNs_;
  }
  for (std::size_t w = 0; w < other.latency_.size(); ++w) {
    latency_[w].merge(other.latency_[w]);
    decisions_[w] += other.decisions_[w];
  }
}

double fastOf(std::vector<double> values) {
  return quantileOf(std::move(values), kFastShare);
}

double quantileOf(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return obs::percentileOfSorted(values, q);
}

std::vector<std::size_t> Windows::fastWindows() const {
  std::vector<std::size_t> order(decisions_.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  const auto count = static_cast<std::size_t>(
      std::ceil(kFastWindowShare * static_cast<double>(order.size())));
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return decisions_[a] > decisions_[b];
                   });
  order.resize(std::min(order.size(), std::max<std::size_t>(1, count)));
  return order;
}

double Windows::fastRate() const {
  const std::vector<std::size_t> fast = fastWindows();
  std::uint64_t decisions = 0;
  for (const std::size_t w : fast) decisions += decisions_[w];
  return static_cast<double>(decisions) /
         (static_cast<double>(fast.size() * sliceNs_) * 1e-9);
}

double Windows::fastQuantile(double q) {
  SampleLog pooled(0);
  for (const std::size_t w : fastWindows()) pooled.merge(latency_[w]);
  return pooled.quantile(q);
}

double Windows::medianQuantile(double q) {
  std::vector<double> values;
  for (SampleLog& log : latency_) {
    if (log.size() > 0) values.push_back(log.quantile(q));
  }
  return median(values);
}

std::uint64_t Windows::decisions() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t d : decisions_) sum += d;
  return sum;
}

std::uint64_t Windows::samples() const {
  std::uint64_t sum = 0;
  for (const SampleLog& log : latency_) sum += log.size();
  return sum;
}

RepeatTimes::RepeatTimes(std::size_t operations,
                         std::size_t samplesPerOperation)
    : perOperation_(operations, SampleLog(samplesPerOperation)) {}

std::vector<double> RepeatTimes::fastTimes() {
  std::vector<double> out;
  out.reserve(perOperation_.size());
  for (SampleLog& log : perOperation_) {
    if (log.size() > 0) out.push_back(log.quantile(kFastShare));
  }
  return out;
}

void RepeatTimes::pool(SampleLog& into) const {
  for (const SampleLog& log : perOperation_) into.merge(log);
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<ir::TargetRegion> suiteRegions() {
  std::vector<ir::TargetRegion> regions;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      regions.push_back(kernel);
    }
  }
  return regions;
}

pad::AttributeDatabase compileSuite(std::span<const ir::TargetRegion> regions) {
  const std::array<mca::MachineModel, 1> models{mca::MachineModel::power9()};
  return compiler::compileAll(regions, models);
}

runtime::RuntimeOptions platformOptions() {
  runtime::RuntimeOptions options;
  options.selector.cpuParams = cpumodel::CpuModelParams::power9();
  options.selector.cpuThreads = 160;
  options.selector.gpuParams = gpumodel::GpuDeviceParams::teslaV100();
  options.selector.mcaModelName = mca::MachineModel::power9().name;
  options.cpuSim = cpusim::CpuSimParams::power9();
  options.cpuSimThreads = 160;
  options.gpuSim = gpusim::GpuSimParams::teslaV100();
  return options;
}

std::vector<workload::Candidate> hotCandidates() {
  constexpr std::array<std::int64_t, 4> kSizes{256, 512, 1024, 2048};
  std::vector<workload::Candidate> candidates;
  for (const polybench::Benchmark& benchmark : polybench::suite()) {
    std::vector<symbolic::Bindings> choices;
    for (const std::int64_t n : kSizes) {
      choices.push_back(benchmark.bindings(n));
    }
    for (const ir::TargetRegion& kernel : benchmark.kernels()) {
      candidates.push_back({kernel.name, choices});
    }
  }
  return candidates;
}

std::vector<workload::Item> hotStream(std::uint64_t seed, std::size_t count) {
  workload::GeneratorOptions options;
  options.seed = seed;
  workload::Generator generator(workload::Shape::Zipfian, hotCandidates(),
                                options);
  return generator.take(count);
}

DecisionBits bitsOf(const runtime::Decision& decision) {
  DecisionBits bits;
  bits.device = decision.device == runtime::Device::Gpu ? 1 : 0;
  bits.valid = decision.valid ? 1 : 0;
  std::memcpy(&bits.cpuSeconds, &decision.cpu.seconds, sizeof(double));
  std::memcpy(&bits.gpuSeconds, &decision.gpu.totalSeconds, sizeof(double));
  return bits;
}

std::string describe(const DecisionBits& bits) {
  double cpu = 0.0;
  double gpu = 0.0;
  std::memcpy(&cpu, &bits.cpuSeconds, sizeof(double));
  std::memcpy(&gpu, &bits.gpuSeconds, sizeof(double));
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer), "%s%s cpu=%.17g gpu=%.17g",
                bits.device != 0 ? "gpu" : "cpu",
                bits.valid != 0 ? "" : "(invalid)", cpu, gpu);
  return buffer;
}

std::vector<DecisionBits> referenceDecisions(
    const pad::AttributeDatabase& database,
    std::span<const ir::TargetRegion> regions,
    std::span<const workload::Item> items) {
  runtime::TargetRuntime rt(database, platformOptions());
  for (const ir::TargetRegion& region : regions) rt.registerRegion(region);
  std::vector<DecisionBits> out;
  out.reserve(items.size());
  for (const workload::Item& item : items) {
    out.push_back(bitsOf(rt.decide(item.region, item.bindings)));
  }
  return out;
}

void pinThread(std::size_t index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

void waitUntil(std::int64_t dueNs) {
  while (nowNs() < dueNs) {
  }
}

}  // namespace perfbench
