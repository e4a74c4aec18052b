/// \file perfdiff.cpp
/// Compares two BENCH_parfft.json files (bench/perf_baseline output) and
/// exits nonzero when the current file regresses against the baseline.
///
/// Usage:
///   perfdiff <baseline.json> <current.json> [--tol=0.05] [--only=a,b]
///
/// Every metric carries a "dir" tag saying which direction is better;
/// a move the *wrong* way by more than the relative tolerance is a
/// regression. The global --tol applies unless the baseline metric
/// carries its own "tol" (e.g. the wall-clock-derived
/// obs.trace_overhead_ratio, whose noise floor is wider than the
/// virtual-time metrics'). --only=name,name restricts the comparison to
/// the named metrics -- the smoke path checks a partial run against the
/// full committed baseline without every absent metric counting as
/// deleted. Metrics missing from the current file are regressions
/// (a deleted guard is a silent regression); new metrics are reported
/// but never fail. Exit codes: 0 ok, 1 regression, 2 usage/parse error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "json.hpp"

namespace {

using parfft::json::Value;

struct Metric {
  double v = 0;
  std::string dir = "lower";
  double tol = -1;  ///< per-metric override; < 0 = use the global
};

bool load_metrics(const char* path, std::map<std::string, Metric>& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfdiff: cannot open %s\n", path);
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  Value root;
  if (!parfft::json::parse(text, root) || !root.is_obj()) {
    std::fprintf(stderr, "perfdiff: %s is not valid JSON\n", path);
    return false;
  }
  const Value* metrics = root.get("metrics");
  if (!metrics || !metrics->is_obj()) {
    std::fprintf(stderr, "perfdiff: %s has no \"metrics\" object\n", path);
    return false;
  }
  for (const auto& [name, val] : metrics->obj) {
    if (!val.is_obj()) continue;
    const Value* v = val.get("v");
    if (!v || v->kind != Value::Kind::Number) continue;
    Metric m;
    m.v = v->num;
    m.dir = val.str_or("dir", "lower");
    m.tol = val.num_or("tol", -1.0);
    out.emplace(name, std::move(m));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double tol = 0.05;
  std::set<std::string> only;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tol=", 6) == 0) {
      tol = std::strtod(argv[i] + 6, nullptr);
    } else if (std::strncmp(argv[i], "--only=", 7) == 0) {
      std::string list(argv[i] + 7);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!name.empty()) only.insert(name);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: perfdiff <baseline.json> <current.json> "
                  "[--tol=0.05] [--only=metric,metric]\n");
      return 0;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2 || tol < 0) {
    std::fprintf(stderr,
                 "usage: perfdiff <baseline.json> <current.json> "
                 "[--tol=0.05] [--only=metric,metric]\n");
    return 2;
  }

  std::map<std::string, Metric> base, cur;
  if (!load_metrics(files[0], base) || !load_metrics(files[1], cur)) return 2;
  if (!only.empty()) {
    for (const std::string& name : only)
      if (base.find(name) == base.end()) {
        std::fprintf(stderr, "perfdiff: --only metric %s not in baseline\n",
                     name.c_str());
        return 2;
      }
  }

  int regressions = 0, improvements = 0;
  std::size_t name_w = 6;
  for (const auto& [name, m] : base) name_w = std::max(name_w, name.size());
  std::printf("%-*s %14s %14s %9s  status\n", static_cast<int>(name_w),
              "metric", "baseline", "current", "delta");
  for (const auto& [name, b] : base) {
    if (!only.empty() && only.find(name) == only.end()) continue;
    const auto it = cur.find(name);
    if (it == cur.end()) {
      std::printf("%-*s %14.6g %14s %9s  REGRESSION (missing)\n",
                  static_cast<int>(name_w), name.c_str(), b.v, "-", "-");
      ++regressions;
      continue;
    }
    const Metric& c = it->second;
    const double denom = b.v != 0 ? b.v : 1.0;
    const double rel = (c.v - b.v) / denom;
    // Positive `bad` means the metric moved the wrong way.
    const double bad = b.dir == "higher" ? -rel : rel;
    const double limit = b.tol >= 0 ? b.tol : tol;
    const char* status = "ok";
    if (bad > limit) {
      status = "REGRESSION";
      ++regressions;
    } else if (bad < -limit) {
      status = "improved";
      ++improvements;
    }
    std::printf("%-*s %14.6g %14.6g %+8.2f%%  %s\n",
                static_cast<int>(name_w), name.c_str(), b.v, c.v, 100 * rel,
                status);
  }
  if (only.empty())
    for (const auto& [name, c] : cur)
      if (base.find(name) == base.end())
        std::printf("%-*s %14s %14.6g %9s  new\n", static_cast<int>(name_w),
                    name.c_str(), "-", c.v, "-");

  std::printf("\n%d regression(s), %d improvement(s), tolerance %.1f%%\n",
              regressions, improvements, 100 * tol);
  return regressions > 0 ? 1 : 0;
}
