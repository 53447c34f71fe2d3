// perfbench/src/common.h — what every workload of the benchmark shares:
// options, the report it prints, latency samples and their quantiles, the
// Fig. 8 platform configuration, and the decision fingerprint the
// correctness gate compares.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ir/region.h"
#include "pad/attribute_db.h"
#include "runtime/target_runtime.h"
#include "workload/workload.h"

namespace perfbench {

using namespace osel;

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t nowNs();

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where span files and the service socket go (inside the checkout).
  std::string outDir = ".bench_build/out";
  std::string commit = "unknown";
  std::string sourceDigest = "unknown";
  std::string goldenPath = "perfbench/golden/paper_suite.golden";
  /// paper-suite only: write a fresh golden to this path and exit.
  std::string writeGolden;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the metrics of the last output line, details
/// printed on the line before it, and the operation accounting.
class Report {
 public:
  /// A metric of the last line (end-to-end, or per-layer when traced).
  void metric(std::string name, double value, std::string unit);
  /// A number printed on the detail line only.
  void detail(std::string name, double value, std::string unit);
  void note(std::string key, std::string value);

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// An operation that failed (error, shed, invalid decision).
  void failure(const std::string& what);
  /// An output that differs from its reference: a failure that also makes
  /// the run incorrect.
  void mismatch(const std::string& what);

  /// Prints the detail line, then the result line, to stdout.
  void print(const Options& options) const;

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Metric> details_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;  ///< the first few, printed
};

/// Uniformly decimated latency samples in nanoseconds. Memory stays at
/// `capacity` however long the run: when full, every other sample is
/// dropped and from then on only every 2^k-th call is kept.
class SampleLog {
 public:
  explicit SampleLog(std::size_t capacity = 1 << 20);
  void add(double ns);
  /// Appends another log's samples (threads merge at the end).
  void merge(const SampleLog& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// q-quantile in nanoseconds (obs::percentileOfSorted). Sorts the
  /// samples.
  [[nodiscard]] double quantile(double q);
  [[nodiscard]] double mean() const;

 private:
  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t seen_ = 0;
  std::vector<double> values_;
  bool sorted_ = false;
};

/// Median of a small set of values (the set is copied).
[[nodiscard]] double median(std::vector<double> values);

/// Set-up repetitions per run (setup_s is their median) and the pause
/// between two of them.
inline constexpr int kSetupReps = 15;
inline constexpr std::chrono::milliseconds kSetupGap{100};

// How the closed-loop figures keep a shared host's interference out.
// Interference only ever slows an operation down, and on the virtual
// machine the benchmark was defined on it came and went: decide-cold ran at
// about 45 or about 72 us per batch, on every CPU at once, in stretches
// from a tenth of a second to twenty seconds, and 60% of a 90 s run was
// slow. The fast end of a run is the closest to the program's own speed,
// while a slower program slows every operation, the fastest included.

/// An operation a workload repeats unchanged (a paper-suite launch once a
/// pass, a decide-cold batch once a cycle of its stream, a wire-open
/// request once a cycle of its connection's stream) is timed as the
/// kFastShare-quantile of its repetitions, counted from the fast end: it
/// needs only 2% of the run on an undisturbed host.
inline constexpr double kFastShare = 0.02;

/// Where an operation's time depends on what else runs at once (decide-hot's
/// contending threads), the run is cut into windows, and the figures come
/// from the kFastWindowShare of them that completed the most decisions.
/// Their latency samples are pooled, so the p99 rests on some thousands of
/// samples rather than one window's dozen, and keeps the lock waits.
inline constexpr double kFastWindowShare = 0.05;

/// The kFastShare-quantile of `values`, lower being faster.
[[nodiscard]] double fastOf(std::vector<double> values);

/// The q-quantile of `values` (nearest rank, obs::percentileOfSorted; the
/// values are copied).
[[nodiscard]] double quantileOf(std::vector<double> values, double q);

/// A measured stretch cut into windows (equal time slices of about
/// kWindowNs), with the operations and latency samples of each.
class Windows {
 public:
  static constexpr std::int64_t kWindowNs = 100'000'000;
  /// Windows covering `lengthNs`; the sample buffers are touched here, so
  /// make them before the clock starts.
  explicit Windows(std::int64_t lengthNs = 0,
                   std::size_t samplesPerWindow = 1 << 10);

  /// Puts the first window at `startNs`.
  void start(std::int64_t startNs) { startNs_ = startNs; }
  /// The window `atNs` falls in (clamped to the first and last).
  [[nodiscard]] std::size_t at(std::int64_t atNs) const;
  /// One operation of `decisions` decisions that took `latencyNs`.
  void add(std::size_t window, std::int64_t latencyNs,
           std::uint64_t decisions = 1);
  /// Adds another stretch's windows to these, window by window.
  void merge(const Windows& other);

  /// Decisions per second over the fast windows (see kFastWindowShare).
  [[nodiscard]] double fastRate() const;
  /// The q-quantile in ns of the latencies of the fast windows, pooled.
  [[nodiscard]] double fastQuantile(double q);
  /// The q-quantile of each window's latencies in ns, median over windows:
  /// for open-loop figures, where a stall's queueing is what is measured.
  [[nodiscard]] double medianQuantile(double q);
  [[nodiscard]] std::uint64_t decisions() const;
  [[nodiscard]] std::uint64_t samples() const;

 private:
  /// The kFastWindowShare of the windows (at least one) with the most
  /// decisions.
  [[nodiscard]] std::vector<std::size_t> fastWindows() const;

  std::int64_t startNs_ = 0;
  std::int64_t sliceNs_ = kWindowNs;
  std::vector<SampleLog> latency_;
  std::vector<std::uint64_t> decisions_;
};

/// Latencies in ns of a fixed cycle of operations a closed loop repeats,
/// kept per operation (see kFastShare).
class RepeatTimes {
 public:
  explicit RepeatTimes(std::size_t operations = 0,
                       std::size_t samplesPerOperation = 1 << 10);
  void add(std::size_t operation, std::int64_t latencyNs) {
    perOperation_[operation].add(static_cast<double>(latencyNs));
  }
  /// Each operation's kFastShare-quantile over its repetitions, in ns.
  [[nodiscard]] std::vector<double> fastTimes();
  /// Appends every kept sample, interference included, to `into`.
  void pool(SampleLog& into) const;

 private:
  std::vector<SampleLog> perOperation_;
};

/// Runs `once` `reps` times, kSetupGap apart, and returns the median wall
/// time in seconds. Each run builds everything afresh; the caller keeps the
/// last one. Before every run but the first, `reset` tears the previous
/// one down, outside the timed part, so only one set-up is ever alive and
/// the peak resident set is that of a single set-up. The gaps spread the
/// set-ups over time: on a shared host the speed of memory-heavy work like
/// this drifts by 2x within a second, so back-to-back set-ups would all
/// sample the same moment.
template <class Reset, class F>
double medianSetupSeconds(int reps, Reset&& reset, F&& once) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    if (i > 0) {
      reset();
      std::this_thread::sleep_for(kSetupGap);
    }
    const std::int64_t t0 = nowNs();
    once(i);
    walls.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
  }
  return median(walls);
}

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peakRssMb();

// --- The system under test, configured as in the paper's Fig. 8 ----------

/// Every Polybench kernel, suite order.
[[nodiscard]] std::vector<ir::TargetRegion> suiteRegions();
/// compiler::compileAll over `regions` for the POWER9 host model.
[[nodiscard]] pad::AttributeDatabase compileSuite(
    std::span<const ir::TargetRegion> regions);
/// POWER9 + V100, 160-thread host, model-compare selection.
[[nodiscard]] runtime::RuntimeOptions platformOptions();

/// The recurring key set of decide-hot and wire-open: every region at the
/// sizes {256, 512, 1024, 2048}.
[[nodiscard]] std::vector<workload::Candidate> hotCandidates();
/// `count` items of a Zipfian stream over hotCandidates().
[[nodiscard]] std::vector<workload::Item> hotStream(std::uint64_t seed,
                                                    std::size_t count);

/// The deterministic part of a decision, compared bit for bit by the
/// correctness gate (overheadSeconds is wall time and is left out).
struct DecisionBits {
  std::uint8_t device = 0;
  std::uint8_t valid = 0;
  std::uint64_t cpuSeconds = 0;
  std::uint64_t gpuSeconds = 0;
  friend bool operator==(const DecisionBits&, const DecisionBits&) = default;
};
[[nodiscard]] DecisionBits bitsOf(const runtime::Decision& decision);
[[nodiscard]] std::string describe(const DecisionBits& bits);

/// Reference decisions: single-threaded scalar decide() over `items` on a
/// runtime of its own.
[[nodiscard]] std::vector<DecisionBits> referenceDecisions(
    const pad::AttributeDatabase& database,
    std::span<const ir::TargetRegion> regions,
    std::span<const workload::Item> items);

/// Pins the calling thread to the index-th CPU (modulo their count) the
/// process may run on. The single-threaded workloads move their thread to
/// the next CPU at every window: an unpinned thread that migrated between
/// the cores of a shared virtual machine ran a third slower in some runs
/// than in others, and a thread kept on one CPU for the whole run takes
/// that CPU's neighbours and interrupts into every window. Rotating puts
/// each CPU in an equal share of the windows.
void pinThread(std::size_t index);

/// Spins until `dueNs`. A generator that sleeps instead lets its core
/// idle, and waking an idle core of a virtual machine can take
/// milliseconds, which would show up as latency of the system under test.
void waitUntil(std::int64_t dueNs);

}  // namespace perfbench
