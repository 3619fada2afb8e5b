#include "report.h"

#include <sys/statfs.h>
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace kbtbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "null";
  return std::string(buf, end);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

bool Metrics::Has(const std::string& name) const {
  return values_.find(name) != values_.end();
}

double Metrics::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.first;
}

const std::string& Metrics::unit(const std::string& name) const {
  return values_.at(name).second;
}

std::string Metrics::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    out += (i ? ", " : "") + JsonString(order_[i]) +
           ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(unit) + "}";
  }
  return out + "}";
}

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string FsType(const std::string& dir) {
  struct statfs st;
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return hex;
    }
  }
}

}  // namespace

std::string HostStampJson(uint64_t seed, const std::string& store_dir) {
  struct utsname uts;
  std::string kernel = ::uname(&uts) == 0 ? uts.release : "unknown";
  const char* sha = std::getenv("KBTBENCH_GIT_SHA");
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(kCompiler) +
         ", \"build_type\": " + JsonString(KBTBENCH_BUILD_TYPE) +
         ", \"git_sha\": " + JsonString(sha != nullptr && *sha ? sha : "unknown") +
         ", \"kernel\": " + JsonString(kernel) +
         ", \"store_fs\": " + JsonString(FsType(store_dir)) +
         ", \"seed\": " + std::to_string(seed) + "}";
}

}  // namespace kbtbench
