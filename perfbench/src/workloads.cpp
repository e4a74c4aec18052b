#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <sstream>
#include <thread>

#include "cluster/cluster.hpp"
#include "core/grids.hpp"
#include "pppm/proxy.hpp"
#include "pppm/solver.hpp"
#include "serve/server.hpp"
#include "simmpi/runtime.hpp"
#include "spans.hpp"

namespace perfbench {

namespace cluster = parfft::cluster;
namespace gpu = parfft::gpu;
namespace net = parfft::net;
namespace pppm = parfft::pppm;
namespace smpi = parfft::smpi;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int rank_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}

core::SimConfig paper_config(int gpus, core::Decomposition decomp,
                             core::Backend backend) {
  // The paper's protocol (bench/bench_common.hpp experiment512): 512^3,
  // Table III brick input/output grids, 8 timed transforms after 2
  // warm-ups that pay the plan spikes.
  core::SimConfig cfg;
  cfg.n = {512, 512, 512};
  cfg.nranks = gpus;
  cfg.machine = net::summit();
  cfg.repeats = 10;
  cfg.warmed = false;
  cfg.options.decomp = decomp;
  cfg.options.backend = backend;
  const core::GridSequenceRow row = core::table3_row(gpus);
  cfg.in_boxes = core::grid_boxes(cfg.n, row.input, gpus);
  cfg.out_boxes = core::grid_boxes(cfg.n, row.output, gpus);
  return cfg;
}

serve::ClusterConfig serve_machine() {
  serve::ClusterConfig c;
  c.machine = net::summit();
  c.device = gpu::v100();
  c.nranks = 12;  // two Summit nodes
  return c;
}

serve::JobShape cube(int n) {
  serve::JobShape s;
  s.n = {n, n, n};
  s.options.decomp = core::Decomposition::Pencil;
  s.options.overlap_batches = true;
  return s;
}

const std::vector<serve::ShapeMix>& serve_catalog() {
  // serve_throughput's plan-cache sweep: 5 hot cubes, 7 tail cubes.
  static const std::vector<serve::ShapeMix> mix = [] {
    std::vector<serve::ShapeMix> m;
    for (int n : {32, 48, 64, 96, 128}) m.push_back({cube(n), 4.0});
    for (int n : {40, 56, 80, 112, 144, 160, 192}) m.push_back({cube(n), 1.0});
    return m;
  }();
  return mix;
}

namespace {

constexpr int kServeRequests = 1000;    // per pass
constexpr int kClusterRequests = 1000;  // per pass
constexpr int kKspaceSteps = 20;        // per pass
constexpr int kAtoms = 32000;
constexpr int kMesh = 64;

void fnv1a(std::uint64_t& h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Digest line: FNV-1a 64 of the modeled outputs, plus the outputs.
std::string digest_of(const std::string& label, const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv1a(h, text);
  return "digest " + label + " fnv1a64=" + hex(h) + "\n" + text;
}

/// Warm single-transform time of the dominant 64^3 shape: the unit the
/// offered load, batching delay, retry backoff and fault rates are
/// expressed in.
double unit_time(const serve::ClusterConfig& c) {
  Scope s("core.Simulator+transform_time", Layer::Core);
  core::Simulator sim(serve::to_sim_config(c, cube(64)));
  return sim.transform_time(1);
}

serve::ServerConfig serve_config(double t1) {
  serve::ServerConfig cfg;
  cfg.cluster = serve_machine();
  for (const auto& m : serve_catalog()) cfg.shapes.push_back(m.shape);
  cfg.cache_capacity = 4;
  cfg.batching.max_batch = 8;
  cfg.batching.max_delay = 2 * t1;
  return cfg;
}

/// Open-loop request source that stamps the wall clock at every pop. A
/// request is not one call, so the op samples of serve_mix and
/// cluster_faults are windows: the engine's wall time from one
/// kOpWindow-th admission to the next (the last window runs to the end of
/// the pass) divided by the requests admitted in it. The windows sum to
/// the pass's op time.
class TimedLoad : public serve::Workload {
 public:
  static constexpr std::uint64_t kOpWindow = 50;

  TimedLoad(std::vector<serve::ShapeMix> catalog, double rate,
            std::uint64_t count, std::uint64_t seed, PassResult& out)
      : inner_(std::move(catalog), rate, count, /*tenants=*/4, seed),
        out_(out) {}

  void start() { window_start_ = start_ = now_ns(); }
  /// Closes the last window; returns the pass's op wall time in seconds.
  double stop() {
    const std::int64_t t = now_ns();
    close_window(t);
    return static_cast<double>(t - start_) * 1e-9;
  }

  std::optional<double> peek() const override { return inner_.peek(); }
  serve::Request pop() override {
    if (popped_ > 0 && popped_ % kOpWindow == 0) close_window(now_ns());
    recorder().set_op(static_cast<std::int64_t>(popped_++));
    return inner_.pop();
  }
  void on_complete(const serve::Request& r, double now) override {
    inner_.on_complete(r, now);
  }
  std::uint64_t offered() const override { return inner_.offered(); }
  bool done() const override { return inner_.done(); }

 private:
  void close_window(std::int64_t t) {
    const std::uint64_t n = popped_ - window_popped_;
    if (n == 0) return;
    out_.op_ms.push_back(static_cast<double>(t - window_start_) * 1e-6 /
                         static_cast<double>(n));
    window_start_ = t;
    window_popped_ = popped_;
  }

  serve::OpenLoopWorkload inner_;
  PassResult& out_;
  std::int64_t start_ = 0, window_start_ = 0;
  std::uint64_t popped_ = 0, window_popped_ = 0;
};

// --- paper_scaling -----------------------------------------------------------

class PaperScaling : public Workload {
 public:
  explicit PaperScaling(const Options& opt) : opt_(opt) {}
  const char* op_definition() const override {
    return "one core::simulate() call on one 512^3 config of the Table III "
           "sweep (34 configs per pass)";
  }
  bool fixed_ops() const override { return true; }

  PassResult pass(std::uint64_t, std::string* digest) override {
    PassResult r;
    const std::int64_t t0 = now_ns();
    struct Item {
      int gpus;
      const char* decomp;
      const char* backend;
      core::SimConfig cfg;
    };
    std::vector<Item> items;
    {
      Scope s("core.grid_boxes", Layer::Core);
      for (int gpus : core::table3_gpu_counts()) {
        if (opt_.smoke && gpus > 96) continue;
        for (auto decomp : {core::Decomposition::Pencil,
                            core::Decomposition::Slab}) {
          // A 512^3 slab decomposition has at most 512 slabs.
          if (decomp == core::Decomposition::Slab && gpus > 512) continue;
          for (auto backend : {core::Backend::Alltoallv,
                               core::Backend::P2PNonBlocking})
            items.push_back(
                {gpus,
                 decomp == core::Decomposition::Pencil ? "pencil" : "slab",
                 backend == core::Backend::Alltoallv ? "alltoallv" : "p2p",
                 paper_config(gpus, decomp, backend)});
        }
      }
    }
    r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    std::ostringstream text;
    for (std::size_t i = 0; i < items.size(); ++i) {
      recorder().set_op(static_cast<std::int64_t>(i));
      const std::int64_t a = now_ns();
      bool ok = false;
      double per = 0;
      try {
        core::SimReport rep;
        {
          Scope s("core.simulate", Layer::Core);
          rep = core::simulate(items[i].cfg);
        }
        per = rep.per_transform;
        if (opt_.doctor) per = -per;
        ok = std::isfinite(per) && per > 0 && std::isfinite(rep.total) &&
             rep.total > 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "simulate(%d GPUs) threw: %s\n", items[i].gpus,
                     e.what());
      }
      const double ms = static_cast<double>(now_ns() - a) * 1e-6;
      r.op_ms.push_back(ms);
      r.ops_wall_s += ms * 1e-3;
      ++r.ops;
      if (!ok) ++r.failed;
      if (digest != nullptr) {
        char line[128];
        std::snprintf(line, sizeof line, "%5d %-6s %-9s per_transform=%.17g\n",
                      items[i].gpus, items[i].decomp, items[i].backend, per);
        text << line;
      }
    }
    if (digest != nullptr)
      *digest = digest_of("paper_scaling (per-config per_transform, virtual s)",
                          text.str());
    return r;
  }

 private:
  Options opt_;
};

// --- serve_mix ---------------------------------------------------------------

class ServeMix : public Workload {
 public:
  ServeMix(const Options& opt, LayerStats& stats) : opt_(opt), st_(stats) {}
  const char* op_definition() const override {
    return "one offered request driven to a terminal outcome on a 12-rank "
           "serve::Server (1000 requests per pass, fresh Server per pass)";
  }

  PassResult pass(std::uint64_t seed, std::string* digest) override {
    PassResult r;
    const std::int64_t t0 = now_ns();
    const double t1 = unit_time(serve_machine());
    std::unique_ptr<serve::Server> server;
    {
      Scope s("serve.Server", Layer::Serve);
      server = std::make_unique<serve::Server>(serve_config(t1));
    }
    const std::uint64_t n = opt_.smoke ? 60 : kServeRequests;
    TimedLoad load(serve_catalog(), 1.0 / t1, n, seed, r);
    r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    const bool traced = recorder().enabled();
    std::uint64_t steps = 0;
    serve::ServeReport rep;
    bool ok = true;
    load.start();
    try {
      {
        Scope s("serve.begin", Layer::Serve);
        server->begin(load);
      }
      for (;;) {
        const double t = server->next_event_time();
        if (!std::isfinite(t)) break;
        ++steps;
        if (traced) {
          const std::int64_t a = now_ns();
          {
            Scope s("serve.advance_to", Layer::Serve);
            server->advance_to(t);
          }
          st_.serve.step_us.push_back(static_cast<double>(now_ns() - a) *
                                      1e-3);
        } else {
          server->advance_to(t);
        }
      }
      Scope s("serve.finish", Layer::Serve);
      rep = server->finish();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve pass threw: %s\n", e.what());
      ok = false;
    }
    r.ops_wall_s = load.stop();
    r.ops = n;
    recorder().set_op(-1);

    if (ok) {
      if (opt_.doctor) rep.completed += 1;
      try {
        Scope s("serve.ServeReport::verify", Layer::Serve);
        rep.verify();
        ok = rep.offered == n;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve report check failed: %s\n", e.what());
        ok = false;
      }
    }
    if (!ok) r.failed = n;
    if (traced) {
      st_.serve.steps += steps;
      st_.serve.offered += rep.offered;
      st_.serve.batches += rep.batches;
      st_.serve.cache_hits += rep.cache_hits;
      st_.serve.cache_misses += rep.cache_misses;
    }
    if (digest != nullptr) {
      std::ostringstream os;
      rep.write_json(os);
      os << "\n";
      *digest = digest_of("serve_mix (pass 0 ServeReport::write_json)", os.str());
    }
    return r;
  }

 private:
  Options opt_;
  LayerStats& st_;
};

// --- cluster_faults ----------------------------------------------------------

class ClusterFaults : public Workload {
 public:
  ClusterFaults(const Options& opt, LayerStats& stats)
      : opt_(opt), st_(stats) {}
  const char* op_definition() const override {
    return "one offered request driven to a terminal outcome on a 3-shard "
           "affinity cluster with seeded crashes and rail-down windows "
           "(1000 requests per pass, fresh Cluster per pass)";
  }

  PassResult pass(std::uint64_t seed, std::string* digest) override {
    PassResult r;
    const std::int64_t t0 = now_ns();
    const serve::ClusterConfig machine = serve_machine();
    const double t1 = unit_time(machine);
    const int machines = 3;
    const std::uint64_t n = opt_.smoke ? 60 : kClusterRequests;
    // A quarter of one shard's capacity for the dominant shape: the tail
    // shapes are far costlier, and affinity pins each shape to one shard.
    const double rate = 0.25 * machines / t1;

    cluster::ClusterOptions co;
    co.shard = serve_config(t1);
    co.shard.retry.max_attempts = 3;
    co.shard.retry.backoff_base = 0.5 * t1;
    co.shard.retry.backoff_cap = 8 * t1;
    co.shard.retry.jitter_seed = mix_seed(seed, 1);
    co.shard.retry.deadline = 80 * t1;
    co.shard.shed_expired = true;
    co.machines = machines;
    co.placement = cluster::Placement::Affinity;
    serve::FaultSpec spec;
    spec.seed = mix_seed(seed, 2);
    spec.horizon = 2.5 * static_cast<double>(n) / rate;
    spec.crash_mtbf = 400 * t1;
    spec.crash_mttr = 8 * t1;
    spec.degrade_mtbf = 100 * t1;
    spec.degrade_mttr = 10 * t1;
    spec.degrade_scale = 0.5;  // one rail of the dual-rail fabric down
    {
      Scope s("serve.ClusterFaultPlan::generate", Layer::Serve);
      co.faults = serve::ClusterFaultPlan::generate(machines, spec);
    }
    std::unique_ptr<cluster::Cluster> tier;
    {
      Scope s("cluster.Cluster", Layer::Cluster);
      tier = std::make_unique<cluster::Cluster>(co);
    }
    TimedLoad load(serve_catalog(), rate, n, seed, r);
    r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    cluster::ClusterReport rep;
    bool ok = true;
    load.start();
    try {
      Scope s("cluster.run", Layer::Cluster);
      rep = tier->run(load);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cluster pass threw: %s\n", e.what());
      ok = false;
    }
    r.ops_wall_s = load.stop();
    r.ops = n;
    recorder().set_op(-1);

    if (ok) {
      if (opt_.doctor) rep.completed += 1;
      try {
        Scope s("cluster.ClusterReport::verify", Layer::Cluster);
        rep.verify();
        ok = rep.offered == n;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cluster report check failed: %s\n", e.what());
        ok = false;
      }
    }
    if (!ok) r.failed = n;
    if (recorder().enabled()) {
      ClusterCounters& c = st_.cluster;
      c.run_s.push_back(r.ops_wall_s);
      c.offered += rep.offered;
      c.routed += rep.routed;
      c.failovers += rep.failovers;
      for (const cluster::MachineSlice& m : rep.per_machine) {
        c.warm_routed += m.warm_routed;
        c.invalidations += m.report.cache_invalidations;
        c.retries += m.report.retries;
      }
    }
    if (digest != nullptr) {
      std::ostringstream os;
      rep.write_json(os);
      os << "\n";
      *digest = digest_of("cluster_faults (pass 0 ClusterReport::write_json)",
                          os.str());
    }
    return r;
  }

 private:
  Options opt_;
  LayerStats& st_;
};

// --- kspace_md ---------------------------------------------------------------

class KspaceMd : public Workload {
 public:
  KspaceMd(const Options& opt, LayerStats& stats) : opt_(opt), st_(stats) {}
  const char* op_definition() const override {
    return "one pppm::KspaceSolver::step (1 r2c + 3 c2r distributed FFTs, "
           "forces) on 32000 atoms, 64^3 mesh, pencils, 4 rank threads";
  }

  PassResult pass(std::uint64_t seed, std::string* digest) override {
    PassResult r;
    const int natoms = opt_.smoke ? 4000 : kAtoms;
    const int mesh = opt_.smoke ? 32 : kMesh;
    const int steps = opt_.smoke ? 4 : kKspaceSteps;
    const std::int64_t t0 = now_ns();
    std::vector<pppm::Particle> atoms;
    {
      Scope s("pppm.make_molecular_system", Layer::Pppm);
      atoms = pppm::make_molecular_system(natoms, 1.0, seed);
    }
    smpi::RuntimeOptions ro;
    ro.nranks = rank_threads();
    std::unique_ptr<smpi::Runtime> rt;
    {
      Scope s("simmpi.Runtime", Layer::Simmpi);
      rt = std::make_unique<smpi::Runtime>(ro);
    }
    std::ostringstream text;
    try {
      rt->run([&](smpi::Comm& comm) {
        const bool lead = comm.rank() == 0;
        // Only rank 0's thread records spans (the recorder is unlocked).
        auto span = [lead](const char* name, Layer l) {
          return lead ? recorder().begin(name, l) : -1;
        };
        pppm::SolverOptions so;
        so.grid = {mesh, mesh, mesh};
        so.fft.decomp = core::Decomposition::Pencil;
        so.real_transform = true;
        int id = span("pppm.KspaceSolver(r2c)", Layer::Pppm);
        pppm::KspaceSolver solver(comm, so);
        recorder().end(id);
        std::vector<pppm::Particle> mine;
        for (const auto& a : atoms)
          if (solver.owns(a)) mine.push_back(a);
        std::vector<std::array<double, 3>> forces;

        // Reference energy from the complex path, built and stepped once.
        double e_ref = 0;
        {
          pppm::SolverOptions co = so;
          co.real_transform = false;
          id = span("pppm.KspaceSolver(c2c)+step", Layer::Pppm);
          pppm::KspaceSolver ref(comm, co);
          e_ref = ref.step(mine, &forces).energy;
          recorder().end(id);
        }
        comm.barrier();
        if (lead) {
          r.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
          if (digest != nullptr) {
            char line[96];
            std::snprintf(line, sizeof line, "reference c2c energy=%.17g\n",
                          e_ref);
            text << line;
          }
        }
        for (int s = 0; s < steps; ++s) {
          std::int64_t a = 0;
          if (lead) {
            recorder().set_op(s);
            a = now_ns();
          }
          id = span("pppm.KspaceSolver::step", Layer::Pppm);
          const pppm::StepResult res = solver.step(mine, &forces);
          recorder().end(id);
          if (!lead) continue;
          const double ms = static_cast<double>(now_ns() - a) * 1e-6;
          r.op_ms.push_back(ms);
          r.ops_wall_s += ms * 1e-3;
          ++r.ops;
          const double e = opt_.doctor ? res.energy * (1 + 1e-6) : res.energy;
          if (!(std::abs(e - e_ref) <= 1e-9 * std::abs(e_ref))) ++r.failed;
          if (digest != nullptr && s < 10) {
            char line[128];
            std::snprintf(line, sizeof line,
                          "step %d energy=%.17g kspace_time=%.17g\n", s,
                          res.energy, res.kspace_time);
            text << line;
          }
        }
        if (lead) recorder().set_op(-1);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "kspace pass threw: %s\n", e.what());
      r.failed = r.ops = static_cast<std::uint64_t>(steps);
    }
    if (recorder().enabled())
      st_.kspace_step_ms.insert(st_.kspace_step_ms.end(), r.op_ms.begin(),
                                r.op_ms.end());
    if (digest != nullptr)
      *digest = digest_of("kspace_md (pass 0 energies, virtual kspace_time)",
                          text.str());
    return r;
  }

 private:
  Options opt_;
  LayerStats& st_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_scaling", "serve_mix", "cluster_faults", "kspace_md"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opt,
                                        LayerStats& stats) {
  if (name == "paper_scaling") return std::make_unique<PaperScaling>(opt);
  if (name == "serve_mix") return std::make_unique<ServeMix>(opt, stats);
  if (name == "cluster_faults")
    return std::make_unique<ClusterFaults>(opt, stats);
  if (name == "kspace_md") return std::make_unique<KspaceMd>(opt, stats);
  return nullptr;
}

PassResult probe_serve(const Options& opt, LayerStats& stats) {
  Scope s("probe.serve", Layer::Bench);
  return ServeMix(opt, stats).pass(mix_seed(opt.seed, 1000), nullptr);
}

PassResult probe_cluster(const Options& opt, LayerStats& stats) {
  Scope s("probe.cluster", Layer::Bench);
  return ClusterFaults(opt, stats).pass(mix_seed(opt.seed, 1001), nullptr);
}

PassResult probe_kspace(const Options& opt, LayerStats& stats) {
  Scope s("probe.kspace", Layer::Bench);
  return KspaceMd(opt, stats).pass(mix_seed(opt.seed, 1002), nullptr);
}

}  // namespace perfbench
