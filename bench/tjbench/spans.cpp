#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>

namespace tjbench {

Tracer* g_tracer = nullptr;

namespace {

std::uint64_t next_tracer_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

// Open spans of the calling thread, innermost last. Deeper nesting than
// this is not produced by any workload; extra levels are simply not pushed.
struct OpenSpan {
  std::uint64_t id;
  std::uint64_t op;
};
constexpr int kMaxDepth = 32;
thread_local OpenSpan t_open[kMaxDepth];
thread_local int t_depth = 0;

}  // namespace

Tracer::Tracer(std::size_t per_thread_capacity)
    : capacity_(per_thread_capacity), tracer_id_(next_tracer_id()) {
  // In SpanName order.
  names_ = {"op",               "rt.spawn",         "sched.queue_delay",
            "gate.join_ready",  "sched.join_wait",  "owp.make_promise",
            "owp.await",        "owp.fulfill",      "sched.wake",
            "adm.admit",        "apps.kernel"};
}

std::uint16_t Tracer::name_id(const std::string& name) {
  std::scoped_lock lk(mu_);
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint16_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint16_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::local() {
  struct Cache {
    std::uint64_t tracer_id = 0;
    Buffer* buf = nullptr;
  };
  thread_local Cache cache;
  if (cache.tracer_id == tracer_id_) return *cache.buf;
  std::scoped_lock lk(mu_);
  auto buf = std::make_unique<Buffer>();
  buf->index = static_cast<std::uint32_t>(buffers_.size()) + 1;
  buf->spans.reserve(capacity_);
  buffers_.push_back(std::move(buf));
  cache = {tracer_id_, buffers_.back().get()};
  return *cache.buf;
}

std::uint64_t Tracer::next_id() {
  Buffer& b = local();
  return (static_cast<std::uint64_t>(b.index) << 40) | b.next++;
}

void Tracer::record(SpanRec rec) {
  Buffer& b = local();
  if (b.spans.size() == capacity_) {
    ++b.dropped;
    return;
  }
  b.spans.push_back(rec);
}

std::uint64_t Tracer::recorded() const {
  std::scoped_lock lk(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::uint64_t Tracer::dropped() const {
  std::scoped_lock lk(mu_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::scoped_lock lk(mu_);
  std::uint64_t epoch = ~std::uint64_t{0};
  for (const auto& b : buffers_) {
    for (const SpanRec& s : b->spans) epoch = std::min(epoch, s.t0);
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& b : buffers_) {
    for (const SpanRec& s : b->spans) {
      const std::uint64_t t0 = s.t0 - epoch;
      const std::uint64_t t1 = s.t1 - epoch;
      // Cross-thread spans get their own track so each thread's track
      // holds only properly nested slices.
      const std::uint32_t tid = s.cross_thread ? b->index + 100000 : b->index;
      out << (first ? "" : ",") << "\n{\"name\":\"" << names_[s.name]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(t0) / 1e3
          << ",\"dur\":" << static_cast<double>(t1 - t0) / 1e3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"t0\":" << t0 << ",\"t1\":" << t1 << "}}";
      first = false;
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::uint64_t new_op() {
  return g_tracer != nullptr ? g_tracer->next_id() : 0;
}

std::uint64_t current_parent(std::uint64_t op) {
  if (t_depth > 0 && t_open[t_depth - 1].op == op) {
    return t_open[t_depth - 1].id;
  }
  return op;
}

ScopedSpan::ScopedSpan(std::uint16_t name, std::uint64_t op) : op_(op) {
  if (op_ == 0) return;
  rec_.name = name;
  rec_.id = name == kOp ? op : g_tracer->next_id();
  rec_.parent = name == kOp ? 0 : current_parent(op);
  if (t_depth < kMaxDepth) t_open[t_depth] = {rec_.id, op};
  ++t_depth;
  rec_.t0 = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (op_ == 0) return;
  rec_.t1 = now_ns();
  --t_depth;
  g_tracer->record(rec_);
}

void record_span(std::uint16_t name, std::uint64_t op, std::uint64_t parent,
                 std::uint64_t t0, std::uint64_t t1, bool cross_thread) {
  if (op == 0) return;
  SpanRec rec;
  rec.name = name;
  rec.id = name == kOp ? op : g_tracer->next_id();
  rec.parent = name == kOp ? 0 : parent;
  rec.t0 = t0;
  rec.t1 = std::max(t0, t1);
  rec.cross_thread = cross_thread;
  g_tracer->record(rec);
}

}  // namespace tjbench
