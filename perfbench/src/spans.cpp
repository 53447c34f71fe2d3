#include "spans.h"

#include <cstdio>
#include <cstring>

#include "common.h"

namespace perfbench {

namespace {

bool sameName(const char* a, const char* b) {
  return a == b || std::strcmp(a, b) == 0;
}

}  // namespace

ThreadTrace::ThreadTrace(std::uint32_t thread, std::size_t stored)
    : thread_(thread), stored_(stored) {
  records_.reserve(stored_);
  stack_.reserve(16);
}

void ThreadTrace::open(const char* name, std::uint64_t request,
                       std::int64_t startNs) {
  Open open;
  open.record.name = name;
  open.record.id = (static_cast<std::uint64_t>(thread_) << 40) | nextId_++;
  open.record.parent = stack_.empty() ? 0 : stack_.back().record.id;
  open.record.request = request;
  open.record.startNs = startNs;
  open.record.endNs = startNs;
  stack_.push_back(open);
}

void ThreadTrace::close(std::int64_t endNs) {
  Open open = stack_.back();
  stack_.pop_back();
  open.record.endNs = endNs;
  const std::int64_t duration = endNs - open.record.startNs;
  if (!stack_.empty()) stack_.back().childNs += duration;

  Named* slot = nullptr;
  for (Named& named : named_) {
    if (sameName(named.name, open.record.name)) {
      slot = &named;
      break;
    }
  }
  if (slot == nullptr) {
    named_.push_back({open.record.name, {}});
    slot = &named_.back();
  }
  slot->totals.count += 1;
  slot->totals.totalNs += duration;
  slot->totals.selfNs += duration - open.childNs;

  if (records_.size() < stored_) {
    records_.push_back(open.record);
  } else {
    dropped_ += 1;
  }
}

void ThreadTrace::leaf(const char* name, std::uint64_t request,
                       std::int64_t startNs, std::int64_t endNs) {
  open(name, request, startNs);
  close(endNs);
}

SpanTotals ThreadTrace::totals(const char* name) const {
  for (const Named& named : named_) {
    if (sameName(named.name, name)) return named.totals;
  }
  return {};
}

Span::Span(ThreadTrace* trace, const char* name, std::uint64_t request)
    : trace_(trace) {
  if (trace_ != nullptr) trace_->open(name, request, nowNs());
}

Span::~Span() {
  if (trace_ != nullptr) trace_->close(nowNs());
}

ThreadTrace& Tracer::thread() {
  return threads_.emplace_back(static_cast<std::uint32_t>(threads_.size()),
                               stored_);
}

SpanTotals Tracer::totals(const char* name) const {
  SpanTotals sum;
  for (const ThreadTrace& trace : threads_) {
    const SpanTotals t = trace.totals(name);
    sum.count += t.count;
    sum.totalNs += t.totalNs;
    sum.selfNs += t.selfNs;
  }
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("thread,id,parent,request,name,start_ns,end_ns\n", out);
  std::uint64_t dropped = 0;
  for (const ThreadTrace& trace : threads_) {
    dropped += trace.dropped_;
    for (const ThreadTrace::Record& r : trace.records_) {
      std::fprintf(out, "%u,%llu,%llu,%llu,%s,%lld,%lld\n", trace.thread_,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.request), r.name,
                   static_cast<long long>(r.startNs),
                   static_cast<long long>(r.endNs));
    }
  }
  std::fprintf(out, "# spans not stored (per-thread cap reached): %llu\n",
               static_cast<unsigned long long>(dropped));
  return std::fclose(out) == 0;
}

}  // namespace perfbench
