#include "obs/metrics.hpp"

#include <sstream>

namespace tj::obs {

std::uint64_t LatencyHistogram::approx_quantile_ns(double q) const {
  const std::uint64_t total = count();
  if (total == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto want = static_cast<std::uint64_t>(q * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += bucket_count(i);
    if (seen >= want && seen > 0) return bucket_floor(i);
  }
  return bucket_floor(kBuckets - 1);
}

LatencyHistogram::Summary LatencyHistogram::summary() const {
  Summary s;
  s.count = count();
  s.sum_ns = sum_ns();
  s.min_ns = min_ns();
  s.max_ns = max_ns();
  s.p50_ns = approx_quantile_ns(0.5);
  s.p90_ns = approx_quantile_ns(0.9);
  s.p99_ns = approx_quantile_ns(0.99);
  s.p999_ns = approx_quantile_ns(0.999);
  return s;
}

std::string LatencyHistogram::to_string() const {
  std::ostringstream os;
  os << "count=" << count();
  if (count() > 0) {
    os << " min=" << min_ns() << "ns p50~" << approx_quantile_ns(0.5)
       << "ns p99~" << approx_quantile_ns(0.99) << "ns max=" << max_ns()
       << "ns";
    os << " buckets:";
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t c = bucket_count(i);
      if (c == 0) continue;
      os << " [" << bucket_floor(i)
         << (i == kBuckets - 1 ? "ns..)=" : "ns)=") << c;
    }
  }
  return os.str();
}

std::string to_string(const Counters& c) {
  std::ostringstream os;
  const char* sep = "";
  for_each_counter(c, [&](const char* name, std::uint64_t v, const char*) {
    os << sep << name << '=' << v;
    sep = " ";
  });
  return os.str();
}

Counters Metrics::counters() const {
  Counters c;
#define TJ_COUNTER_LOAD(name, help) \
  c.name = name.load(std::memory_order_relaxed);
  TJ_METRICS_COUNTERS(TJ_COUNTER_LOAD)
#undef TJ_COUNTER_LOAD
  return c;
}

std::string Metrics::to_string() const {
  std::ostringstream os;
  for_each_histogram([&os](const char* name, const LatencyHistogram& h) {
    os << "  " << name << ": " << h.to_string() << "\n";
  });
  os << "  " << obs::to_string(counters()) << "\n";
  return os.str();
}

}  // namespace tj::obs
