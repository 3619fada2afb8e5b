#include "compare.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace kbtbench {
namespace {

/// Just enough JSON for the benchmark's own files.
struct Json {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  double number = 0;
  bool boolean = false;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Find(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  bool Parse(Json* out) {
    bool ok = Value(out);
    Skip();
    return ok && pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    size_t n = std::char_traits<char>::length(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\' && pos_ < s_.size()) {
        char e = s_[pos_++];
        if (e == 'n') {
          c = '\n';
        } else if (e == 't') {
          c = '\t';
        } else if (e == 'u') {
          pos_ += 4;  // Control characters only; keep a placeholder.
          c = '?';
        } else {
          c = e;
        }
      }
      out->push_back(c);
    }
    return Eat('"');
  }
  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size() || ++depth_ > 64) return false;
    bool ok = true;
    char c = s_[pos_];
    if (c == '{') {
      out->kind = Json::kObject;
      ++pos_;
      if (!Eat('}')) {
        do {
          std::string key;
          Json value;
          ok = String(&key) && Eat(':') && Value(&value);
          if (ok) out->fields.emplace_back(std::move(key), std::move(value));
        } while (ok && Eat(','));
        ok = ok && Eat('}');
      }
    } else if (c == '[') {
      out->kind = Json::kArray;
      ++pos_;
      if (!Eat(']')) {
        do {
          Json value;
          ok = Value(&value);
          if (ok) out->items.push_back(std::move(value));
        } while (ok && Eat(','));
        ok = ok && Eat(']');
      }
    } else if (c == '"') {
      out->kind = Json::kString;
      ok = String(&out->string);
    } else if (Literal("true")) {
      out->kind = Json::kBool;
      out->boolean = true;
    } else if (Literal("false")) {
      out->kind = Json::kBool;
    } else if (Literal("null")) {
      out->kind = Json::kNull;
    } else {
      out->kind = Json::kNumber;
      size_t used = 0;
      try {
        out->number = std::stod(s_.substr(pos_, 64), &used);
      } catch (...) {
        return false;
      }
      pos_ += used;
    }
    --depth_;
    return ok;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

bool ReadJson(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  return Parser(buf.str()).Parse(out);
}

/// Python's statistics.quantiles(values, n=4) (the exclusive method), so the
/// spreads printed here are the ones the acceptance rule computes.
std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() < 2) return {v[0], v[0], v[0]};
  std::vector<double> q;
  const long m = static_cast<long>(v.size()) + 1;
  for (long i = 1; i < 4; ++i) {
    long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(v.size()) - 1);
    double delta = static_cast<double>(i * m - j * 4);
    q.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4);
  }
  return q;
}

struct Bound {
  bool lower_is_better = true;
  double bound = -1;  ///< < 0: per-layer, no verdict.
};

using Samples = std::map<std::pair<std::string, std::string>, std::vector<double>>;

/// Adds every (workload, metric) value of one run record.
void Collect(const Json& run, Samples* out) {
  const Json* workload = run.Find("workload");
  if (workload == nullptr) return;
  for (const char* set : {"end_to_end", "per_layer"}) {
    const Json* metrics = run.Find(set);
    if (metrics == nullptr) continue;
    for (const auto& [name, m] : metrics->fields) {
      const Json* value = m.Find("value");
      if (value != nullptr && value->kind == Json::kNumber) {
        (*out)[{workload->string, name}].push_back(value->number);
      }
    }
  }
}

bool CollectFile(const std::string& path, Samples* out) {
  Json doc;
  if (!ReadJson(path, &doc)) {
    std::fprintf(stderr, "kbtbench compare: cannot parse %s\n", path.c_str());
    return false;
  }
  if (const Json* runs = doc.Find("runs")) {
    for (const Json& run : runs->items) Collect(run, out);
  } else {
    Collect(doc, out);
  }
  return true;
}

/// The metrics of BENCHMARK.json in file order: end-to-end, then per-layer.
std::vector<std::pair<std::string, Bound>> ReadBounds(const std::string& path) {
  std::vector<std::pair<std::string, Bound>> bounds;
  Json doc;
  if (!ReadJson(path, &doc)) return bounds;
  for (const char* section : {"end_to_end", "per_layer"}) {
    const Json* list = doc.Find(section);
    if (list == nullptr) continue;
    for (const Json& m : list->items) {
      const Json* name = m.Find("name");
      const Json* better = m.Find("better");
      const Json* bound = m.Find("bound");
      if (name == nullptr) continue;
      Bound b;
      b.lower_is_better = better == nullptr || better->string != "higher";
      b.bound = bound != nullptr ? bound->number : -1;
      bounds.emplace_back(name->string, b);
    }
  }
  return bounds;
}

std::string Verdict(const std::vector<double>& a, const std::vector<double>& b,
                    const Bound& bound) {
  auto worse = [&](double x, double y) {  // How much worse y is than x.
    double rel = x != 0 ? (y - x) / std::fabs(x) : 0.0;
    return bound.lower_is_better ? rel : -rel;
  };
  auto spread = [](const std::vector<double>& q) {
    return q[1] != 0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
  };
  // Quartiles of one or two runs say nothing about the noise.
  if (a.size() < 3 || b.size() < 3) return "unresolved";
  std::vector<double> qa = Quartiles(a), qb = Quartiles(b);
  const double spread_a = spread(qa), noise = std::max(spread_a, spread(qb));
  const double change = worse(qa[1], qb[1]);
  size_t pairs = std::min(a.size(), b.size()), wins = 0, losses = 0;
  for (size_t i = 0; i < pairs; ++i) {
    wins += worse(a[i], b[i]) < 0;
    losses += worse(a[i], b[i]) > 0;
  }
  if (bound.bound < 0) {
    // Per-layer: no bound, so only a change beyond the noise is reported.
    if (-change > noise && wins * 10 >= pairs * 9) return "better";
    if (change > noise && losses * 10 >= pairs * 9) return "worse";
    return "within";
  }
  if (noise > bound.bound) {
    bool all_better = true;
    for (double x : a) {
      for (double y : b) all_better = all_better && worse(x, y) < 0;
    }
    return all_better ? "better" : "unresolved";
  }
  if (change > bound.bound) return "worse";
  if (-change > spread_a && wins * 10 >= pairs * 9) return "better";
  return "within";
}

}  // namespace

int Compare(int argc, char** argv) {
  std::string bounds_path = "BENCHMARK.json";
  std::vector<std::string> side[2];
  int s = 0;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--bounds" && i + 1 < argc) {
      bounds_path = argv[++i];
    } else if (arg == "--") {
      ++s;
    } else if (s < 2) {
      side[s].push_back(arg);
    }
  }
  if (s != 1 || side[0].empty() || side[1].empty()) {
    std::fprintf(stderr, "usage: kbtbench compare [--bounds BENCHMARK.json] "
                         "A.json... -- B.json...\n");
    return 2;
  }
  std::vector<std::pair<std::string, Bound>> bounds = ReadBounds(bounds_path);
  if (bounds.empty()) {
    std::fprintf(stderr, "kbtbench compare: no metrics in %s\n", bounds_path.c_str());
    return 2;
  }
  Samples samples[2];
  for (int k = 0; k < 2; ++k) {
    for (const std::string& path : side[k]) {
      if (!CollectFile(path, &samples[k])) return 2;
    }
  }
  std::set<std::string> workloads;
  for (const auto& [key, values] : samples[0]) workloads.insert(key.first);
  std::printf("%-11s %-28s %-34s %-34s %8s  %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "change", "verdict");
  int worse = 0;
  for (const std::string& workload : workloads) {
    for (const auto& [metric, bound] : bounds) {
      auto a = samples[0].find({workload, metric});
      auto b = samples[1].find({workload, metric});
      if (a == samples[0].end() || b == samples[1].end()) continue;
      std::vector<double> qa = Quartiles(a->second), qb = Quartiles(b->second);
      std::string verdict = Verdict(a->second, b->second, bound);
      worse += verdict == "worse" && bound.bound >= 0;
      char sa[64], sb[64];
      std::snprintf(sa, sizeof(sa), "%.5g [%.5g, %.5g] n=%zu", qa[1], qa[0], qa[2],
                    a->second.size());
      std::snprintf(sb, sizeof(sb), "%.5g [%.5g, %.5g] n=%zu", qb[1], qb[0], qb[2],
                    b->second.size());
      double change = qa[1] != 0 ? 100.0 * (qb[1] - qa[1]) / std::fabs(qa[1]) : 0.0;
      std::printf("%-11s %-28s %-34s %-34s %+7.1f%%  %s\n", workload.c_str(),
                  metric.c_str(), sa, sb, change, verdict.c_str());
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace kbtbench
