/// \file probes.cpp
/// Per-layer probes of a traced run: fixed calls into one layer each,
/// timed by the benchmark, on the inputs the workloads use. Every
/// repeated timing reports the median of its repetitions.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "core/grids.hpp"
#include "core/pack.hpp"
#include "core/stages.hpp"
#include "fft/many.hpp"
#include "netsim/collectives.hpp"
#include "serve/request.hpp"
#include "simmpi/runtime.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dft = parfft::dft;
namespace net = parfft::net;
namespace smpi = parfft::smpi;
using parfft::cplx;
using parfft::idx_t;

namespace {

double ms_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

/// Median wall time in ms of `reps` calls of `fn`, each in a span.
template <typename Fn>
double time_ms(const char* name, Layer layer, int reps, Fn&& fn) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) {
    const std::int64_t t0 = now_ns();
    {
      Scope s(name, layer);
      fn();
    }
    v.push_back(ms_since(t0));
  }
  return quantile(v, 0.5);
}

/// Last-level cache size in bytes (sysfs), or 0 when unknown.
double llc_bytes() {
  for (int idx = 4; idx >= 0; --idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    double v = std::atof(s.c_str());
    const char unit = s.back();
    if (unit == 'K') v *= 1024;
    if (unit == 'M') v *= 1024 * 1024;
    return v;
  }
  return 0;
}

/// The complex-path stage plan of kspace_md's mesh: brick in and out,
/// pencils, one rank per rank thread.
core::StagePlan kspace_plan(int mesh) {
  const std::array<int, 3> n{mesh, mesh, mesh};
  const int ranks = rank_threads();
  core::PlanOptions po;
  po.decomp = core::Decomposition::Pencil;
  return core::build_stages(n, ranks, core::brick_layout(n, ranks),
                            core::brick_layout(n, ranks), po, net::summit());
}

void probe_simulate(const Options& opt, LayerStats& st) {
  const struct {
    int gpus, reps;
  } cases[] = {{96, 5}, {768, 3}, {3072, 1}};
  for (const auto& c : cases) {
    const core::SimConfig cfg = paper_config(c.gpus, core::Decomposition::Pencil,
                                             core::Backend::Alltoallv);
    st.probe["core.simulate_ms.g" + std::to_string(c.gpus)] =
        time_ms("core.simulate", Layer::Core, opt.smoke ? 1 : c.reps,
                [&] { core::simulate(cfg); });
  }
}

void probe_pricing(const Options& opt, LayerStats& st) {
  const serve::ClusterConfig machine = serve_machine();
  std::vector<double> builds;
  for (const serve::ShapeMix& m : serve_catalog()) {
    const core::SimConfig cfg = serve::to_sim_config(machine, m.shape);
    builds.push_back(time_ms("core.Simulator", Layer::Core, 1,
                             [&] { core::Simulator sim(cfg); }));
  }
  st.probe["core.simulator_build_ms"] = quantile(builds, 0.5);

  // First and repeat transform_time(b) on a fresh Simulator of the
  // dominant shape: the memo-miss and memo-hit costs of one dispatch.
  const core::SimConfig dom = serve::to_sim_config(machine, cube(64));
  const int reps = opt.smoke ? 1 : 5;
  std::vector<double> cold1, warm1, cold8, warm8, reprice;
  for (int i = 0; i < reps; ++i) {
    core::Simulator sim(dom);
    cold1.push_back(time_ms("core.transform_time", Layer::Core, 1,
                            [&] { sim.transform_time(1); }));
    warm1.push_back(time_ms("core.transform_time", Layer::Core, 1,
                            [&] { sim.transform_time(1); }));
    cold8.push_back(time_ms("core.transform_time", Layer::Core, 1,
                            [&] { sim.transform_time(8); }));
    warm8.push_back(time_ms("core.transform_time", Layer::Core, 1,
                            [&] { sim.transform_time(8); }));
    // A rail-down window opening on the warm plan.
    reprice.push_back(time_ms("core.set_nic_scale+transform_time", Layer::Core,
                              1, [&] {
                                sim.set_nic_scale(0.5);
                                sim.transform_time(8);
                              }));
  }
  st.probe["core.price_cold_ms.b1"] = quantile(cold1, 0.5);
  st.probe["core.price_warm_ms.b1"] = quantile(warm1, 0.5);
  st.probe["core.price_cold_ms.b8"] = quantile(cold8, 0.5);
  st.probe["core.price_warm_ms.b8"] = quantile(warm8, 0.5);
  st.probe["core.reprice_ms"] = quantile(reprice, 0.5);

  const core::Simulator sim(dom);
  const net::CommCost cost(dom.machine, net::RankMap{dom.machine.gpus_per_node},
                           dom.nranks);
  st.probe["core.overlap_batch_ms.b8"] =
      time_ms("core.overlapped_batch_time", Layer::Core, reps, [&] {
        core::overlapped_batch_time(sim.plan(), dom.device, cost,
                                    net::TransferMode::GpuAware, dom.flavor, 8);
      });
}

void probe_netsim(const Options& opt, LayerStats& st) {
  struct Case {
    const char* key;
    core::SimConfig cfg;
    int reps;
  };
  std::vector<Case> cases;
  cases.push_back({"r12", serve::to_sim_config(serve_machine(), cube(64)), 50});
  for (int g : {96, 768, 3072})
    cases.push_back({g == 96 ? "r96" : (g == 768 ? "r768" : "r3072"),
                     paper_config(g, core::Decomposition::Pencil,
                                  core::Backend::Alltoallv),
                     g == 96 ? 20 : (g == 768 ? 5 : 3)});
  for (Case& c : cases) {
    if (c.cfg.in_boxes.empty())
      c.cfg.in_boxes = c.cfg.out_boxes = core::brick_layout(c.cfg.n, c.cfg.nranks);
    core::StagePlan plan;
    {
      Scope s("core.build_stages", Layer::Core);
      plan = core::build_stages(c.cfg.n, c.cfg.nranks, c.cfg.in_boxes,
                                c.cfg.out_boxes, c.cfg.options, c.cfg.machine);
    }
    // The config's widest reshape, every send posted at once.
    std::vector<net::Flow> flows;
    for (const core::Stage& stage : plan.stages) {
      if (stage.kind != core::Stage::Kind::Reshape) continue;
      std::vector<net::Flow> f;
      const net::SendMatrix sm = stage.reshape.send_matrix();
      for (std::size_t src = 0; src < sm.size(); ++src)
        for (const auto& [dst, bytes] : sm[src])
          if (bytes > 0) f.push_back({static_cast<int>(src), dst, bytes});
      if (f.size() > flows.size()) flows = std::move(f);
    }
    const net::FlowSim sim(c.cfg.machine,
                           net::RankMap{c.cfg.machine.gpus_per_node},
                           c.cfg.nranks);
    // Fresh copies made up front: run() fills each flow's finish time.
    const int reps = opt.smoke ? 1 : c.reps;
    std::vector<std::vector<net::Flow>> phases(static_cast<std::size_t>(reps),
                                               flows);
    std::size_t next = 0;
    st.probe[std::string("netsim.phase_ms.") + c.key] =
        time_ms("netsim.FlowSim::run", Layer::Netsim, reps, [&] {
          sim.run(phases[next++], net::TransferMode::GpuAware);
        });
    st.probe[std::string("netsim.flows.") + c.key] =
        static_cast<double>(flows.size());
  }
}

/// Packs every region of `regions` out of `local` into one buffer and
/// unpacks it back; returns the payload bytes moved (packed + unpacked).
double pack_round_trip(std::vector<cplx>& data, const core::Box3& local,
                       const std::vector<core::Box3>& regions,
                       std::vector<cplx>& buf) {
  double bytes = 0;
  idx_t off = 0;
  {
    Scope s("core.pack_box", Layer::Core);
    for (const core::Box3& r : regions) {
      core::pack_box(data.data(), local, r, buf.data() + off);
      off += r.count();
    }
  }
  off = 0;
  {
    Scope s("core.unpack_box", Layer::Core);
    for (const core::Box3& r : regions) {
      core::unpack_box(buf.data() + off, local, r, data.data());
      off += r.count();
      bytes += 2.0 * static_cast<double>(r.count()) * sizeof(cplx);
    }
  }
  return bytes;
}

void probe_pack(const Options& opt, LayerStats& st) {
  // kspace_md's reshape regions: every send region of rank 0 in every
  // reshape of the complex-path plan, packed from its layout and back.
  const core::StagePlan plan = kspace_plan(opt.smoke ? 32 : 64);
  std::vector<double> gbps;
  for (int rep = 0; rep < (opt.smoke ? 2 : 20); ++rep) {
    double bytes = 0;
    const std::int64_t t0 = now_ns();
    for (const core::Stage& stage : plan.stages) {
      if (stage.kind != core::Stage::Kind::Reshape) continue;
      const core::Box3 local = stage.reshape.from()[0];
      std::vector<core::Box3> regions;
      for (const core::Transfer& t : stage.reshape.sends(0))
        regions.push_back(t.region);
      std::vector<cplx> data(static_cast<std::size_t>(local.count()),
                             cplx{1.0, -1.0});
      std::vector<cplx> buf(data.size());
      bytes += pack_round_trip(data, local, regions, buf);
    }
    gbps.push_back(bytes / (ms_since(t0) * 1e6));
  }
  st.probe["core.pack_gbps"] = quantile(gbps, 0.5);

  // Arrays of at least 4x the last-level cache: memory-bound pack of half
  // of an n^3 box (runs of n/2 elements), packed and unpacked in place.
  const double llc = llc_bytes() > 0 ? llc_bytes() : 105.0 * (1 << 20);
  const double want = opt.smoke ? 16.0 * (1 << 20) : 4 * llc;
  int n = 64;
  while (static_cast<double>(n) * n * n * sizeof(cplx) < want) n += 16;
  const core::Box3 local = core::world_box({n, n, n});
  core::Box3 half = local;
  half.hi[2] = n / 2 - 1;
  std::vector<cplx> data(static_cast<std::size_t>(local.count()),
                         cplx{1.0, -1.0});
  std::vector<cplx> buf(static_cast<std::size_t>(half.count()), cplx{});
  std::vector<double> big;
  for (int rep = 0; rep < (opt.smoke ? 1 : 3); ++rep) {
    const std::int64_t t0 = now_ns();
    const double bytes = pack_round_trip(data, local, {half}, buf);
    big.push_back(bytes / (ms_since(t0) * 1e6));
  }
  st.probe["core.pack_gbps.big"] = quantile(big, 0.5);
  std::printf("pack probe: big array %d^3 complex = %.0f MiB against a "
              "%.0f MiB last-level cache\n",
              n, static_cast<double>(data.size()) * sizeof(cplx) / (1 << 20),
              llc / (1 << 20));
}

void probe_fft(const Options& opt, LayerStats& st) {
  // One kspace_md rank's 64-point lines: a quarter of the 64^3 mesh.
  const int n = 64;
  const int lines = n * n * n / 4 / n;
  dft::BatchLayout layout;
  layout.count = lines;
  layout.idist = layout.odist = n;
  dft::ManyPlan plan(n, layout);
  std::vector<cplx> in(static_cast<std::size_t>(n) * lines), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = cplx(std::sin(0.1 * static_cast<double>(i)), 0.5);
  const double ms = time_ms("fft.ManyPlan::execute", Layer::Fft,
                            opt.smoke ? 3 : 50, [&] {
                              plan.execute(in.data(), out.data(),
                                           dft::Direction::Forward);
                            });
  const double flops = 5.0 * n * std::log2(n) * lines;
  st.probe["fft.lines_gflops"] = flops / (ms * 1e6);

  std::vector<cplx> mesh(static_cast<std::size_t>(n) * n * n);
  for (std::size_t i = 0; i < mesh.size(); ++i)
    mesh[i] = cplx(std::cos(0.01 * static_cast<double>(i)), 0.0);
  st.probe["fft.local3d_ms"] =
      time_ms("fft.fft3d_local", Layer::Fft, opt.smoke ? 1 : 10, [&] {
        dft::fft3d_local(mesh.data(), {n, n, n}, dft::Direction::Forward);
      });
}

void probe_simmpi(const Options& opt, LayerStats& st) {
  // One kspace_md reshape's counts: the complex plan's first reshape.
  const core::StagePlan plan = kspace_plan(opt.smoke ? 32 : 64);
  const core::ReshapePlan* reshape = nullptr;
  for (const core::Stage& s : plan.stages)
    if (s.kind == core::Stage::Kind::Reshape) {
      reshape = &s.reshape;
      break;
    }
  const int ranks = rank_threads();
  double total_bytes = 0;
  for (int r = 0; r < ranks; ++r) total_bytes += reshape->send_bytes(r);

  smpi::RuntimeOptions ro;
  ro.nranks = ranks;
  smpi::Runtime rt(ro);
  std::vector<double> ms;
  const int reps = opt.smoke ? 3 : 20;
  rt.run([&](smpi::Comm& comm) {
    const int me = comm.rank();
    const auto g = static_cast<std::size_t>(ranks);
    std::vector<std::size_t> sc(g, 0), sd(g, 0), rc(g, 0), rd(g, 0);
    for (const core::Transfer& t : reshape->sends(me))
      sc[static_cast<std::size_t>(t.peer)] =
          static_cast<std::size_t>(t.region.count()) * sizeof(cplx);
    for (const core::Transfer& t : reshape->recvs(me))
      rc[static_cast<std::size_t>(t.peer)] =
          static_cast<std::size_t>(t.region.count()) * sizeof(cplx);
    std::partial_sum(sc.begin(), sc.end() - 1, sd.begin() + 1);
    std::partial_sum(rc.begin(), rc.end() - 1, rd.begin() + 1);
    std::vector<std::byte> sbuf(sd.back() + sc.back(), std::byte{1});
    std::vector<std::byte> rbuf(rd.back() + rc.back());
    for (int i = 0; i < reps; ++i) {
      comm.barrier();
      const std::int64_t t0 = me == 0 ? now_ns() : 0;
      const int id =
          me == 0 ? recorder().begin("simmpi.Comm::alltoallv", Layer::Simmpi)
                  : -1;
      comm.alltoallv(sbuf.data(), sc, sd, rbuf.data(), rc, rd);
      recorder().end(id);
      if (me == 0) ms.push_back(ms_since(t0));
    }
  });
  const double med = quantile(ms, 0.5);
  st.probe["simmpi.alltoallv_ms"] = med;
  st.probe["simmpi.gbps"] = total_bytes / (med * 1e6);
}

}  // namespace

void run_probes(const Options& opt, LayerStats& stats) {
  Scope s("probes", Layer::Bench);
  probe_simulate(opt, stats);
  probe_pricing(opt, stats);
  probe_netsim(opt, stats);
  probe_pack(opt, stats);
  probe_fft(opt, stats);
  probe_simmpi(opt, stats);
}

}  // namespace perfbench
