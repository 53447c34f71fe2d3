// perfbench/src/spans.h — the traced run's spans, recorded by the
// benchmark around its own calls into each layer's public functions.
//
// Every span has a name, start, end, parent and request id. Each thread
// records into its own ThreadTrace; closing a span folds its duration and
// self time (duration minus the time its children cover) into per-name
// totals at once, so the totals stay exact however many spans a run makes,
// while only the first `stored` spans per thread are kept for the span file
// written at the end.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace perfbench {

/// Per-name totals over every closed span.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t totalNs = 0;
  std::int64_t selfNs = 0;
};

class ThreadTrace {
 public:
  ThreadTrace(std::uint32_t thread, std::size_t stored);

  /// Opens a span at `startNs` as a child of the innermost open span.
  void open(const char* name, std::uint64_t request, std::int64_t startNs);
  /// Closes the innermost open span at `endNs`.
  void close(std::int64_t endNs);
  /// Opens and closes a leaf span in one call.
  void leaf(const char* name, std::uint64_t request, std::int64_t startNs,
            std::int64_t endNs);

  [[nodiscard]] SpanTotals totals(const char* name) const;

 private:
  friend class Tracer;
  struct Record {
    const char* name;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::int64_t startNs;
    std::int64_t endNs;
  };
  struct Open {
    Record record;
    std::int64_t childNs = 0;
  };
  struct Named {
    const char* name;
    SpanTotals totals;
  };

  std::uint32_t thread_;
  std::size_t stored_;
  std::uint64_t nextId_ = 1;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::uint64_t dropped_ = 0;
  std::vector<Named> named_;
};

/// Opens a span now and closes it when the scope ends; a null trace makes
/// it a no-op.
class Span {
 public:
  Span(ThreadTrace* trace, const char* name, std::uint64_t request);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadTrace* trace_;
};

/// Owns the per-thread traces of one run.
class Tracer {
 public:
  explicit Tracer(std::size_t storedPerThread = 50'000)
      : stored_(storedPerThread) {}

  /// A trace for one more thread; the reference stays valid for the
  /// tracer's lifetime.
  ThreadTrace& thread();

  /// Totals of `name` merged over every thread. Call once the threads that
  /// record have finished.
  [[nodiscard]] SpanTotals totals(const char* name) const;

  /// Writes the stored spans as CSV; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::size_t stored_;
  std::deque<ThreadTrace> threads_;
};

}  // namespace perfbench
