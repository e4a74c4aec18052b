/// \file parfft_top.cpp
/// Ascii dashboard over telemetry snapshots (obs::Telemetry::
/// write_snapshot, schema "parfft-telemetry-v1").
///
/// Usage:
///   parfft_top <snapshot.json> [--once] [--validate]
///
/// Renders one frame: every windowed series with its run-total stats and
/// a sparkline of per-window activity, the per-tenant SLO panel
/// (state / attainment / burn rates), the alert log tail and the flight-
/// recorder counters. --once is accepted for symmetry with live-ish
/// wrappers (rendering is always one frame here -- the snapshot is a
/// file, and this repo's clocks are virtual). --validate only checks the
/// snapshot against the schema and prints nothing but the verdict.
///
/// Exit codes: 0 ok, 1 schema-invalid snapshot, 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "json.hpp"

namespace {

using parfft::json::Value;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// Per-window activity as a density ramp, newest window rightmost.
std::string sparkline(const Value& windows) {
  static const char kRamp[] = " .:-=+*#%@";
  double peak = 0;
  for (const Value& w : windows.arr)
    peak = std::max(peak, w.num_or("count", 0));
  std::string out;
  const std::size_t n = windows.arr.size();
  const std::size_t first = n > 32 ? n - 32 : 0;  // last 32 windows
  for (std::size_t i = first; i < n; ++i) {
    const double c = windows.arr[i].num_or("count", 0);
    const int idx =
        peak > 0 ? static_cast<int>(c / peak * 9.0) : 0;
    out += kRamp[std::clamp(idx, 0, 9)];
  }
  return out;
}

/// Schema check: the keys every parfft-telemetry-v1 snapshot must carry.
bool validate(const Value& root, std::string& why) {
  if (!root.is_obj()) { why = "root is not an object"; return false; }
  if (root.str_or("schema", "") != "parfft-telemetry-v1") {
    why = "schema is not parfft-telemetry-v1";
    return false;
  }
  for (const char* key : {"now", "window"}) {
    const Value* v = root.get(key);
    if (!v || v->kind != Value::Kind::Number) {
      why = std::string("missing numeric \"") + key + "\"";
      return false;
    }
  }
  const Value* series = root.get("series");
  if (!series || !series->is_obj()) { why = "missing \"series\" object"; return false; }
  for (const auto& [name, s] : series->obj) {
    const Value* w = s.get("windows");
    if (!s.is_obj() || !w || !w->is_arr()) {
      why = "series \"" + name + "\" has no windows array";
      return false;
    }
  }
  for (const char* key : {"slo", "alerts"}) {
    const Value* v = root.get(key);
    if (!v || !v->is_arr()) {
      why = std::string("missing \"") + key + "\" array";
      return false;
    }
  }
  const Value* rec = root.get("recorder");
  if (!rec || !rec->is_obj() || !rec->get("capacity")) {
    why = "missing \"recorder\" object";
    return false;
  }
  // Optional cluster extension: a per-machine section, one summary
  // object per shard, each carrying a numeric id.
  if (const Value* machines = root.get("machines")) {
    if (!machines->is_arr()) { why = "\"machines\" is not an array"; return false; }
    for (const Value& m : machines->arr) {
      const Value* id = m.get("id");
      if (!m.is_obj() || !id || id->kind != Value::Kind::Number) {
        why = "machines entry has no numeric \"id\"";
        return false;
      }
    }
  }
  return true;
}

/// Splits a cluster-snapshot series name "machine/<id>/<rest>" into its
/// machine column and plain name; "-" for untagged series.
std::pair<std::string, std::string> split_machine(const std::string& name) {
  const std::string prefix = "machine/";
  if (name.rfind(prefix, 0) == 0) {
    const std::size_t slash = name.find('/', prefix.size());
    if (slash != std::string::npos && slash > prefix.size())
      return {name.substr(prefix.size(), slash - prefix.size()),
              name.substr(slash + 1)};
  }
  return {"-", name};
}

void render(std::ostream& os, const Value& root, const std::string& path) {
  os << "parfft_top -- " << path << "\n";
  os << "now " << fmt(root.num_or("now", 0)) << "s  window "
     << fmt(root.num_or("window", 0)) << "s  telemetry "
     << (root.get("enabled") && root.get("enabled")->b ? "on" : "off")
     << "\n\n";

  if (const Value* machines = root.get("machines");
      machines && !machines->arr.empty()) {
    parfft::Table t({"machine", "now", "series", "requests", "slo",
                     "alerts", "recorded", "dumps"});
    for (const Value& m : machines->arr) {
      t.add_row({fmt(m.num_or("id", -1)), fmt(m.num_or("now", 0)),
                 fmt(m.num_or("series", 0)), fmt(m.num_or("requests", 0)),
                 fmt(m.num_or("slo", 0)), fmt(m.num_or("alerts", 0)),
                 fmt(m.num_or("recorded", 0)), fmt(m.num_or("dumps", 0))});
    }
    t.print(os);
    os << "\n";
  }

  const Value* series = root.get("series");
  if (series && !series->obj.empty()) {
    parfft::Table t({"machine", "series", "count", "mean", "p50", "p99",
                     "max", "activity (newest right)"});
    for (const auto& [name, s] : series->obj) {
      const auto [machine, plain] = split_machine(name);
      t.add_row({machine, plain, fmt(s.num_or("count", 0)),
                 fmt(s.num_or("mean", 0)), fmt(s.num_or("p50", 0)),
                 fmt(s.num_or("p99", 0)), fmt(s.num_or("max", 0)),
                 sparkline(*s.get("windows"))});
    }
    t.print(os);
    os << "\n";
  }

  const Value* slo = root.get("slo");
  if (slo && !slo->arr.empty()) {
    parfft::Table t({"machine", "tenant", "state", "attainment", "objective",
                     "burn short", "burn long", "budget"});
    for (const Value& m : slo->arr) {
      const double att = m.num_or("attainment", 1.0);
      const double obj = m.num_or("objective", 0);
      // Error-budget bar: fraction of the allowed error rate consumed.
      const double budget = obj < 1.0 ? (1.0 - att) / (1.0 - obj) : 0.0;
      const int fill =
          std::clamp(static_cast<int>(budget * 10.0), 0, 10);
      std::string bar = "[";
      for (int i = 0; i < 10; ++i) bar += i < fill ? '#' : '-';
      bar += ']';
      const double machine = m.num_or("machine", -1);
      t.add_row({machine >= 0 ? fmt(machine) : "-",
                 fmt(m.num_or("tenant", 0)), m.str_or("state", "?"),
                 fmt(att), fmt(obj), fmt(m.num_or("burn_short", 0)),
                 fmt(m.num_or("burn_long", 0)), bar});
    }
    t.print(os);
    os << "\n";
  }

  const Value* alerts = root.get("alerts");
  if (alerts && !alerts->arr.empty()) {
    os << "alerts (" << alerts->arr.size() << " total, last 8):\n";
    const std::size_t n = alerts->arr.size();
    for (std::size_t i = n > 8 ? n - 8 : 0; i < n; ++i) {
      const Value& a = alerts->arr[i];
      os << "  t=" << fmt(a.num_or("t", 0)) << "  tenant "
         << fmt(a.num_or("tenant", 0)) << "  " << a.str_or("from", "?")
         << " -> " << a.str_or("to", "?") << "  (burn "
         << fmt(a.num_or("burn_short", 0)) << "/"
         << fmt(a.num_or("burn_long", 0)) << ")\n";
    }
    os << "\n";
  }

  if (const Value* rec = root.get("recorder")) {
    os << "recorder: seen " << fmt(rec->num_or("seen", 0)) << "  recorded "
       << fmt(rec->num_or("recorded", 0)) << "  capacity "
       << fmt(rec->num_or("capacity", 0)) << "  dumps "
       << (rec->get("dumps") ? rec->get("dumps")->arr.size() : 0) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool validate_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--once") == 0) {
      // One frame is the only mode; accepted for wrapper symmetry.
    } else if (std::strcmp(argv[i], "--validate") == 0) {
      validate_only = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: parfft_top <snapshot.json> [--once] "
                  "[--validate]\n");
      return 0;
    } else if (!path) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "parfft_top: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (!path) {
    std::fprintf(stderr,
                 "usage: parfft_top <snapshot.json> [--once] [--validate]\n");
    return 2;
  }

  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "parfft_top: cannot open %s\n", path);
    return 2;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  Value root;
  if (!parfft::json::parse(text, root)) {
    std::fprintf(stderr, "parfft_top: %s is not valid JSON\n", path);
    return 1;
  }
  std::string why;
  if (!validate(root, why)) {
    std::fprintf(stderr, "parfft_top: %s: invalid snapshot: %s\n", path,
                 why.c_str());
    return 1;
  }
  if (validate_only) {
    std::printf("parfft_top: %s: valid parfft-telemetry-v1 snapshot\n",
                path);
    return 0;
  }
  render(std::cout, root, path);
  return 0;
}
