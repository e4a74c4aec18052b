/// \file main.cpp
/// perfbench: wall-clock benchmark of the parfft simulator, serving tiers
/// and KSPACE application (host time, not the modeled virtual time that
/// bench/perf_baseline pins).
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--spans-out FILE] [--smoke] [--doctor]
///
/// Runs passes of the workload until S seconds have elapsed. --trace 0
/// prints the end-to-end metrics; --trace 1 alternates untraced and
/// traced passes, then runs the per-layer probes with spans on, and
/// prints the per-layer metrics. The last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it starts afresh at exec, so the launcher's memory does not
/// count.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  double kb = 0;
  while (f >> key) {
    if (key == "VmHWM:") {
      f >> kb;
      break;
    }
    f.ignore(1 << 12, '\n');
  }
  return kb / 1024.0;
}

/// Entry i is the mean time of op i over `passes`, which all ran the same
/// ops.
std::vector<double> per_op_means(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> mean(passes.front().size(), 0.0);
  const auto n = static_cast<double>(passes.size());
  for (const auto& p : passes)
    for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += p[i] / n;
  return mean;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

void print_metrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms)
    std::printf("metric %-28s = %.6g %s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  # ",
                m.note.c_str());
}

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted) +
       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char v[64];
    std::snprintf(v, sizeof v, "%.17g",
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + v +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE] [--smoke] "
               "[--doctor]\nworkloads:",
               why);
  for (const std::string& w : workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") opt.workload = value();
    else if (a == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") opt.seconds = std::atof(value().c_str());
    else if (a == "--trace") opt.trace = value() == "1";
    else if (a == "--spans-out") spans_out = value();
    else if (a == "--smoke") opt.smoke = true;
    else if (a == "--doctor") opt.doctor = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  LayerStats stats;
  std::unique_ptr<Workload> wl = make_workload(opt.workload, opt, stats);
  if (!wl) usage(("unknown workload '" + opt.workload + "'").c_str());

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " smoke" : "");
  std::printf("op: %s\n", wl->op_definition());

  // Passes until the time is up. With --trace 1 each pass seed runs twice,
  // untraced and then traced, so the tracing overhead is taken over the
  // same work.
  std::vector<double> rates, setups, op_ms;
  std::vector<std::vector<double>> pass_op_ms;  // per pass, if fixed_ops()
  std::uint64_t attempted = 0, failed = 0, traced_ops = 0, ops = 0;
  double ops_wall_s = 0, traced_wall_s = 0;
  std::size_t traced_spans = 0;
  std::string digest;
  const std::int64_t t_start = now_ns();
  for (int pass = 0;; ++pass) {
    const bool traced = opt.trace && pass % 2 == 1;
    recorder().set_enabled(traced);
    const std::size_t spans_before = recorder().size();
    PassResult pr;
    {
      Scope s("pass", Layer::Bench);
      const int index = opt.trace ? pass / 2 : pass;
      pr = wl->pass(mix_seed(opt.seed, static_cast<std::uint64_t>(index)),
                    pass == 0 ? &digest : nullptr);
    }
    recorder().set_enabled(false);
    attempted += pr.ops;
    failed += pr.failed;
    if (traced) {
      traced_ops += pr.ops;
      traced_wall_s += pr.ops_wall_s;
      traced_spans += recorder().size() - spans_before;
    } else {
      rates.push_back(static_cast<double>(pr.ops) / pr.ops_wall_s);
      ops += pr.ops;
      ops_wall_s += pr.ops_wall_s;
      setups.push_back(pr.setup_s);
      op_ms.insert(op_ms.end(), pr.op_ms.begin(), pr.op_ms.end());
      if (wl->fixed_ops()) pass_op_ms.push_back(std::move(pr.op_ms));
    }
    const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
    if (traced == opt.trace && (elapsed >= opt.seconds || opt.smoke)) break;
  }
  std::fputs(digest.c_str(), stdout);
  std::printf("untraced pass rates (ops/s):");
  for (double r : rates) std::printf(" %.1f", r);
  std::printf("\n");

  std::vector<Metric> out;
  if (!opt.trace) {
    const std::string passes = std::to_string(rates.size()) + " passes";
    std::string samples = std::to_string(op_ms.size()) + " op samples";
    if (wl->fixed_ops()) {
      // The ops' times span four decades, so a quantile of the pooled
      // samples sits at the seam between two ops and jumps with either
      // one's tail. Take it over each op's mean time instead.
      op_ms = per_op_means(pass_op_ms);
      std::printf("per-op mean ms over %zu passes:", pass_op_ms.size());
      for (double ms : op_ms) std::printf(" %.3f", ms);
      std::printf("\n");
      samples = std::to_string(op_ms.size()) + " ops, each its mean over " +
                passes;
    }
    out = {
        {"ops_per_s", static_cast<double>(ops) / ops_wall_s, "1/s",
         "ops over op wall time of " + passes},
        {"op_p50_ms", quantile(op_ms, 0.50), "ms", samples},
        {"op_p95_ms", quantile(op_ms, 0.95), "ms", samples},
        {"setup_s", quantile(setups, 0.5), "s", "median over " + passes},
        {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM"},
    };
    print_metrics(out);
  } else {
    const std::size_t workload_spans = recorder().size();
    recorder().set_enabled(true);
    recorder().set_op(-1);
    auto add = [&](const PassResult& pr) {
      attempted += pr.ops;
      failed += pr.failed;
    };
    if (opt.workload != "serve_mix") add(probe_serve(opt, stats));
    if (opt.workload != "cluster_faults") add(probe_cluster(opt, stats));
    if (opt.workload != "kspace_md") add(probe_kspace(opt, stats));
    run_probes(opt, stats);
    recorder().set_enabled(false);

    const ServeCounters& sv = stats.serve;
    const ClusterCounters& cl = stats.cluster;
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    for (const auto& [name, value] : stats.probe) {
      std::string unit = "ms";
      if (name.find("gbps") != std::string::npos) unit = "GB/s";
      else if (name.find("gflops") != std::string::npos) unit = "GFLOP/s";
      else if (name.find("flows") != std::string::npos) unit = "count";
      out.push_back({name, value, unit, ""});
    }
    const auto off = static_cast<double>(sv.offered);
    const auto coff = static_cast<double>(cl.offered);
    out.insert(out.end(), {
        {"serve.step_us.p50", quantile(sv.step_us, 0.50), "us",
         std::to_string(sv.step_us.size()) + " advance_to calls"},
        {"serve.step_us.p99", quantile(sv.step_us, 0.99), "us", ""},
        {"serve.steps_per_req", per(static_cast<double>(sv.steps), off),
         "count/req", ""},
        {"serve.batches_per_req", per(static_cast<double>(sv.batches), off),
         "count/req", ""},
        {"serve.plan_builds_per_req",
         per(static_cast<double>(sv.cache_misses), off), "count/req",
         "plan-cache misses over offered"},
        {"serve.cache_hit_ratio",
         per(static_cast<double>(sv.cache_hits),
             static_cast<double>(sv.cache_hits + sv.cache_misses)),
         "ratio", ""},
        {"serve.invalidations_per_req",
         per(static_cast<double>(cl.invalidations), coff), "count/req",
         "summed over cluster shards"},
        {"serve.retries_per_req", per(static_cast<double>(cl.retries), coff),
         "count/req", "summed over cluster shards"},
        {"cluster.run_s", quantile(cl.run_s, 0.5), "s",
         "median Cluster::run wall time per pass"},
        {"cluster.failovers_per_req",
         per(static_cast<double>(cl.failovers), coff), "count/req", ""},
        {"pppm.step_ms", quantile(stats.kspace_step_ms, 0.50), "ms",
         "median KspaceSolver::step over " +
             std::to_string(stats.kspace_step_ms.size()) + " steps"},
        {"cluster.affinity_hit_rate",
         per(static_cast<double>(cl.warm_routed),
             static_cast<double>(cl.routed)),
         "ratio", "warm_routed over routed"},
    });

    const auto self_all = recorder().self_seconds();
    const auto self_probes = recorder().self_seconds(workload_spans);
    std::printf("self time by layer (s): workload traced passes | probes\n");
    for (int l = 0; l < kLayers; ++l) {
      const auto i = static_cast<std::size_t>(l);
      std::printf("  %-8s %10.6f | %10.6f\n", layer_name(static_cast<Layer>(l)),
                  self_all[i] - self_probes[i], self_probes[i]);
      out.push_back({std::string(layer_name(static_cast<Layer>(l))) + ".self_s",
                     self_all[i], "s", "workload traced passes + probes"});
    }
    // Tracing cost per event, and the overhead it implies per op, beside
    // the measured (noisier) difference of two wall times.
    const double ns = ns_per_span(100000);
    const double spans_per_op = per(static_cast<double>(traced_spans),
                                    static_cast<double>(traced_ops));
    const double ns_per_op = per(ops_wall_s, static_cast<double>(ops)) * 1e9;
    out.push_back({"trace.ns_per_span", ns, "ns", "100000 spans"});
    out.push_back({"trace.spans_per_op", spans_per_op, "count/op", ""});
    out.push_back({"trace.overhead_est_pct",
                   100.0 * per(spans_per_op * ns, ns_per_op), "%",
                   "spans per op x ns per span over untraced ns per op"});
    out.push_back({"trace.overhead_pct",
                   100.0 * (per(traced_wall_s, static_cast<double>(traced_ops)) /
                                per(ops_wall_s, static_cast<double>(ops)) -
                            1.0),
                   "%",
                   "op time per op, traced vs untraced passes of the same "
                   "seeds (" + std::to_string(rates.size()) + " each)"});
    print_metrics(out);

    if (!spans_out.empty()) {
      std::ofstream f(spans_out);
      recorder().write_chrome(f);
      std::printf("spans: %zu written to %s\n", recorder().size(),
                  spans_out.c_str());
    }
  }
  std::printf("metric %-28s = %.6g ratio  # %llu failed of %llu attempted\n",
              "error_rate",
              attempted ? static_cast<double>(failed) /
                              static_cast<double>(attempted)
                        : 0.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", json_result(failed == 0 && attempted > 0, attempted,
                                  failed, out)
                          .c_str());
  return 0;
}
