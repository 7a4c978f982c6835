#pragma once
// Span recorder for tjbench's traced run. Spans are recorded by the
// benchmark's own code around its calls into each layer's public functions;
// nothing inside src/ is instrumented.
//
// Every recording thread appends into its own pre-reserved buffer, so the hot
// path takes no lock (a buffer is registered under a mutex once per thread).
// A full buffer counts the span as dropped instead of growing. Spans are kept
// in memory and written as Chrome/Perfetto JSON when the run ends.
//
// Parent links: a span opened with ScopedSpan nests under the innermost span
// of the same op that is still open on the calling thread, or else directly
// under the op's root span. Spans whose two ends happen on different threads
// (queue delay, wake) are recorded after the fact with an explicit parent.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tjbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Fixed span names; apps spans ("apps.<app>.<policy>") are added at run
/// time through Tracer::name_id.
enum SpanName : std::uint16_t {
  kOp,           ///< one op / request / app run, the root of its tree
  kSpawn,        ///< async() / async_owning() call
  kQueueDelay,   ///< spawn return -> the child body's first statement
  kJoinReady,    ///< Future::get on a task that had already terminated
  kJoinWait,     ///< Future::get on a task that had not terminated yet
  kMakePromise,  ///< make_promise()
  kAwait,        ///< Promise::get
  kFulfill,      ///< Promise::fulfill
  kWake,         ///< child body end / fulfill call -> waiter's return
  kAdmit,        ///< AdmissionController::try_admit
  kKernel,       ///< one service request kernel
};

struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for op spans
  std::uint64_t t0 = 0;      ///< steady-clock ns
  std::uint64_t t1 = 0;
  std::uint16_t name = 0;
  bool cross_thread = false;  ///< the two ends were on different threads
};

class Tracer {
 public:
  explicit Tracer(std::size_t per_thread_capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name (cold path).
  std::uint16_t name_id(const std::string& name);

  /// A fresh span id, unique across threads (buffer index in the high bits).
  std::uint64_t next_id();
  void record(SpanRec rec);

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Writes every span as a Chrome trace; false when the file cannot be
  /// written. Call only after every recording thread has stopped.
  bool write_chrome(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t index = 0;
    std::uint64_t next = 1;
    std::uint64_t dropped = 0;
    std::vector<SpanRec> spans;
  };
  Buffer& local();

  const std::size_t capacity_;
  const std::uint64_t tracer_id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
  std::vector<std::string> names_;                // guarded by mu_
};

/// Non-null only in the traced run.
extern Tracer* g_tracer;

/// A fresh op id when tracing, else 0. An op's root span (kOp) takes the op
/// id as its own span id; every other span of the op names it as `op`, and
/// op == 0 makes every span call a no-op (untraced run, unsampled op).
std::uint64_t new_op();

/// Opens a span on the calling thread, closed by the destructor.
class ScopedSpan {
 public:
  ScopedSpan(std::uint16_t name, std::uint64_t op);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRec rec_;
  std::uint64_t op_;
};

/// The innermost open span of `op` on this thread, else `op` itself.
std::uint64_t current_parent(std::uint64_t op);

/// Records a span whose ends were timed elsewhere (no-op when op == 0).
void record_span(std::uint16_t name, std::uint64_t op, std::uint64_t parent,
                 std::uint64_t t0, std::uint64_t t1, bool cross_thread);

}  // namespace tjbench
