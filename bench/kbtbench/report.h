#ifndef KBTBENCH_REPORT_H_
#define KBTBENCH_REPORT_H_

/// \file
/// Statistics, metric records and the JSON the benchmark writes.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace kbtbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// A number in JSON with every digit it carries (shortest round-trip form).
std::string JsonNumber(double v);
std::string JsonString(std::string_view s);

/// Named values with units, kept in insertion order for printing.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;
  /// {"name": {"value": v, "unit": u}, ...}
  std::string ToJson() const;
  const std::vector<std::string>& names() const { return order_; }
  const std::string& unit(const std::string& name) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Host and build facts stamped into every result file.
std::string HostStampJson(uint64_t seed, const std::string& store_dir);

}  // namespace kbtbench

#endif  // KBTBENCH_REPORT_H_
