#pragma once
/// \file workloads.hpp
/// The benchmark's four workloads and the per-layer probes.
///
/// A workload runs in passes; every pass builds its own Server, Cluster
/// or Runtime (plan caches persist across run() calls, so a reused one
/// would measure a different, warmer system) from a pass seed derived
/// from the run's --seed.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/simulate.hpp"
#include "serve/workload.hpp"

namespace perfbench {

namespace core = parfft::core;
namespace serve = parfft::serve;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny ops (test only): smaller inputs, one short pass.
  bool smoke = false;
  /// Corrupt every op's output before it is checked (test only): shows
  /// that the checks feed the failure count.
  bool doctor = false;
};

/// Linear-interpolated quantile of `v`, q in [0, 1] (0 when empty).
double quantile(std::vector<double> v, double q);

/// SplitMix64 of (seed, stream): independent per-pass and per-role seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// What one pass measured.
struct PassResult {
  double setup_s = 0;     ///< wall time before the pass's first op
  double ops_wall_s = 0;  ///< wall time spent inside the ops
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< ops that threw or failed a check
  std::vector<double> op_ms;  ///< per-op wall time
};

/// Counters the serve and cluster layers expose in their reports, summed
/// over the passes of a traced run (probe or workload).
struct ServeCounters {
  std::vector<double> step_us;  ///< per Server::advance_to
  std::uint64_t steps = 0, offered = 0, batches = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
};
struct ClusterCounters {
  std::vector<double> run_s;  ///< per Cluster::run
  std::uint64_t offered = 0, routed = 0, warm_routed = 0, failovers = 0;
  std::uint64_t invalidations = 0, retries = 0;
};

/// Everything a traced run collects besides spans.
struct LayerStats {
  ServeCounters serve;
  ClusterCounters cluster;
  std::vector<double> kspace_step_ms;  ///< per KspaceSolver::step
  std::map<std::string, double> probe;  ///< probe metric -> value
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass: fresh set-up, then the pass's ops. When `digest` is
  /// non-null it receives the pass's modeled (virtual-time) outputs.
  virtual PassResult pass(std::uint64_t pass_seed, std::string* digest) = 0;
  /// One-line op definition for the human-readable header.
  virtual const char* op_definition() const = 0;
  /// True when every pass runs the same ops in the same order, whatever
  /// its seed: op i of one pass is op i of the next.
  virtual bool fixed_ops() const { return false; }
};

/// The workload named `name`, or null if there is none.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt,
                                        LayerStats& stats);
const std::vector<std::string>& workload_names();

/// Serve, cluster and KSPACE probe passes for a traced run whose
/// workload does not itself drive those layers.
PassResult probe_serve(const Options& opt, LayerStats& stats);
PassResult probe_cluster(const Options& opt, LayerStats& stats);
PassResult probe_kspace(const Options& opt, LayerStats& stats);

/// Shared configurations: the workloads and the probes time the same
/// inputs.
core::SimConfig paper_config(int gpus, core::Decomposition decomp,
                             core::Backend backend);
serve::ClusterConfig serve_machine();
serve::JobShape cube(int n);
/// 5 hot and 7 tail cubes (serve_throughput's plan-cache sweep).
const std::vector<serve::ShapeMix>& serve_catalog();
/// Rank threads of kspace_md and the simmpi probe: 4, or nproc if less.
int rank_threads();

/// The per-layer probes of a traced run: fixed calls into core, netsim,
/// fft and simmpi whose timings go into `stats.probe`.
void run_probes(const Options& opt, LayerStats& stats);

}  // namespace perfbench
