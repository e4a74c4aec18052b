#include "core/stages.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/pack.hpp"
#include "model/bandwidth.hpp"

namespace parfft::core {

net::CollectiveAlg to_alg(Backend b) {
  switch (b) {
    case Backend::Alltoall: return net::CollectiveAlg::Alltoall;
    case Backend::Alltoallv: return net::CollectiveAlg::Alltoallv;
    case Backend::Alltoallw: return net::CollectiveAlg::Alltoallw;
    case Backend::P2PBlocking: return net::CollectiveAlg::P2PBlocking;
    case Backend::P2PNonBlocking: return net::CollectiveAlg::P2PNonBlocking;
  }
  PARFFT_ASSERT(false);
  return net::CollectiveAlg::Alltoallv;
}

std::string backend_name(Backend b) {
  switch (b) {
    case Backend::Alltoall: return "MPI_Alltoall";
    case Backend::Alltoallv: return "MPI_Alltoallv";
    case Backend::Alltoallw: return "MPI_Alltoallw";
    case Backend::P2PBlocking: return "MPI_Send/Irecv";
    case Backend::P2PNonBlocking: return "MPI_Isend/Irecv";
  }
  PARFFT_ASSERT(false);
  return {};
}

bool backend_is_p2p(Backend b) {
  return b == Backend::P2PBlocking || b == Backend::P2PNonBlocking;
}

bool backend_is_datatype(Backend b) { return b == Backend::Alltoallw; }

idx_t StagePlan::max_work_elements(int rank) const {
  idx_t m = 0;
  for (const Stage& s : stages) {
    if (s.kind == Stage::Kind::Fft) {
      m = std::max(m, s.boxes[static_cast<std::size_t>(rank)].count());
    } else {
      m = std::max(m, s.reshape.from()[static_cast<std::size_t>(rank)].count());
      m = std::max(m, s.reshape.to()[static_cast<std::size_t>(rank)].count());
    }
  }
  return m;
}

int StagePlan::reshape_count() const {
  int c = 0;
  for (const Stage& s : stages)
    if (s.kind == Stage::Kind::Reshape) ++c;
  return c;
}

namespace {

std::vector<Box3> grid_layout(const std::array<int, 3>& n,
                              const ProcGrid& grid, int nranks) {
  for (int d = 0; d < 3; ++d)
    PARFFT_CHECK(grid.dims[static_cast<std::size_t>(d)] <= n[static_cast<std::size_t>(d)],
                 "processor grid exceeds the transform size along an axis");
  return pad_boxes(split_world(world_box(n), grid), nranks);
}

bool same_layout(const std::vector<Box3>& a, const std::vector<Box3>& b) {
  return a == b;
}

}  // namespace

StagePlan build_stages(const std::array<int, 3>& n, int nranks,
                       std::vector<Box3> in_boxes,
                       std::vector<Box3> out_boxes, const PlanOptions& opt,
                       const net::MachineSpec& machine) {
  PARFFT_CHECK(nranks >= 1, "need at least one rank");
  PARFFT_CHECK(static_cast<int>(in_boxes.size()) == nranks &&
                   static_cast<int>(out_boxes.size()) == nranks,
               "need one input and one output box per rank");
  PARFFT_CHECK(opt.batch >= 1, "batch must be positive");

  StagePlan plan;
  plan.n = n;
  plan.nranks = nranks;
  plan.options = opt;
  plan.compute_ranks =
      (opt.shrink_to > 0 && opt.shrink_to < nranks) ? opt.shrink_to : nranks;
  const int cr = plan.compute_ranks;

  // Coverage sanity: boxes must tile the whole index space element-wise.
  const idx_t N = plan.total_elements();
  idx_t in_count = 0, out_count = 0;
  for (const Box3& b : in_boxes) in_count += b.count();
  for (const Box3& b : out_boxes) out_count += b.count();
  PARFFT_CHECK(in_count == N, "input boxes do not cover the index space");
  PARFFT_CHECK(out_count == N, "output boxes do not cover the index space");

  // Resolve the decomposition.
  Decomposition d = opt.decomp;
  if (d == Decomposition::Auto) {
    const auto choice = model::choose_decomposition(
        n, cr, machine.nic_bw, machine.latency_inter);
    d = choice == model::Choice::Slab ? Decomposition::Slab
                                      : Decomposition::Pencil;
  }
  plan.resolved = d;

  // FFT-stage layouts: a list of (boxes, axes) pairs.
  struct FftStep {
    std::vector<Box3> boxes;
    std::vector<int> axes;
  };
  std::vector<FftStep> steps;
  if (n[0] == 1) {
    // 2-D transform: one intermediate transfer between the two axes,
    // regardless of the requested decomposition (a 2-D problem has only
    // this one level of parallelism).
    PARFFT_CHECK(cr <= n[1] && cr <= n[2],
                 "2-D transform needs nprocs <= both axis lengths");
    steps.push_back({grid_layout(n, ProcGrid{{1, cr, 1}}, nranks), {2}});
    steps.push_back({grid_layout(n, ProcGrid{{1, 1, cr}}, nranks), {1}});
    plan.resolved = Decomposition::Slab;
  } else {
    switch (d) {
    case Decomposition::Slab: {
      PARFFT_CHECK(cr <= n[0] && cr <= n[1],
                   "slab decomposition needs nprocs <= N1 and <= N2");
      steps.push_back({grid_layout(n, slab_grid(cr, 0), nranks), {1, 2}});
      steps.push_back({grid_layout(n, slab_grid(cr, 1), nranks), {0}});
      break;
    }
    case Decomposition::Pencil: {
      for (int axis = 0; axis < 3; ++axis)
        steps.push_back(
            {grid_layout(n, pencil_grid(cr, axis), nranks), {axis}});
      break;
    }
    case Decomposition::Brick: {
      // Pencil stages with an intermediate hop to a 3-D brick grid after
      // each compute stage: four communication phases between FFT stages
      // (Section I).
      const ProcGrid mid = min_surface_grid(cr, n);
      for (int axis = 0; axis < 3; ++axis) {
        steps.push_back(
            {grid_layout(n, pencil_grid(cr, axis), nranks), {axis}});
        if (axis < 2)
          steps.push_back({grid_layout(n, mid, nranks), {}});  // pure hop
      }
      break;
    }
    case Decomposition::Auto:
      PARFFT_ASSERT(false);
      break;
    }
  }

  // Assemble: reshape between distinct layouts, FFT stages on their layout.
  std::vector<Box3> cur = std::move(in_boxes);
  for (FftStep& step : steps) {
    if (!same_layout(cur, step.boxes)) {
      Stage r;
      r.kind = Stage::Kind::Reshape;
      r.reshape = ReshapePlan::create(cur, step.boxes);
      plan.stages.push_back(std::move(r));
      cur = step.boxes;
    }
    if (!step.axes.empty()) {
      Stage f;
      f.kind = Stage::Kind::Fft;
      f.axes = step.axes;
      f.boxes = std::move(step.boxes);
      plan.stages.push_back(std::move(f));
    }
  }
  if (!same_layout(cur, out_boxes)) {
    Stage r;
    r.kind = Stage::Kind::Reshape;
    r.reshape = ReshapePlan::create(std::move(cur), std::move(out_boxes));
    plan.stages.push_back(std::move(r));
  }
  return plan;
}

StagePlan build_partial_stages(const std::array<int, 3>& n, int nranks,
                               std::vector<Box3> in_boxes,
                               std::vector<Box3> out_boxes,
                               const std::vector<int>& axes,
                               const PlanOptions& opt) {
  PARFFT_CHECK(nranks >= 1, "need at least one rank");
  PARFFT_CHECK(!axes.empty(), "need at least one axis to transform");
  StagePlan plan;
  plan.n = n;
  plan.nranks = nranks;
  plan.options = opt;
  plan.compute_ranks =
      (opt.shrink_to > 0 && opt.shrink_to < nranks) ? opt.shrink_to : nranks;
  plan.resolved = Decomposition::Pencil;

  std::vector<Box3> cur = std::move(in_boxes);
  for (int axis : axes) {
    auto boxes = grid_layout(n, pencil_grid(plan.compute_ranks, axis), nranks);
    if (!same_layout(cur, boxes)) {
      Stage r;
      r.kind = Stage::Kind::Reshape;
      r.reshape = ReshapePlan::create(cur, boxes);
      plan.stages.push_back(std::move(r));
      cur = boxes;
    }
    Stage f;
    f.kind = Stage::Kind::Fft;
    f.axes = {axis};
    f.boxes = std::move(boxes);
    plan.stages.push_back(std::move(f));
  }
  if (!same_layout(cur, out_boxes)) {
    Stage r;
    r.kind = Stage::Kind::Reshape;
    r.reshape = ReshapePlan::create(std::move(cur), std::move(out_boxes));
    plan.stages.push_back(std::move(r));
  }
  return plan;
}

PackCost reshape_pack_cost(const gpu::DeviceSpec& device,
                           const ReshapePlan& rp, int rank, int batch,
                           Backend backend, double elem_bytes) {
  PackCost c;
  if (backend_is_datatype(backend)) return c;
  auto fused = [&](const std::vector<Transfer>& list, const Box3& local) {
    double t = 0;
    for (const Transfer& tr : list)
      t += gpu::pack_region_cost(
          device, static_cast<double>(tr.region.count() * batch) * elem_bytes,
          pack_contiguous_run(local, tr.region, elem_bytes));
    if (!list.empty()) t += device.kernel_launch;
    return t;
  };
  c.pack = fused(rp.sends(rank), rp.from()[static_cast<std::size_t>(rank)]);
  c.unpack = fused(rp.recvs(rank), rp.to()[static_cast<std::size_t>(rank)]);
  return c;
}

FftCost fft_axis_cost(const gpu::DeviceSpec& device, const Box3& box,
                      int axis, int batch, bool contiguous_fft,
                      gpu::PlanCache* cache) {
  FftCost c;
  if (box.empty()) return c;
  const int len = static_cast<int>(box.size(axis));
  const int lines = static_cast<int>(box.count() / len) * batch;
  const bool reorder = axis != 2 && contiguous_fft;
  const bool strided = axis != 2 && !contiguous_fft;
  c.fft = cache != nullptr ? cache->fft_call(device, len, lines, strided)
                           : gpu::fft_cost(device, len, lines, strided);
  if (reorder) {
    const double bytes =
        static_cast<double>(box.count()) * batch * sizeof(cplx);
    c.transpose = 2.0 * gpu::pack_cost(device, bytes, sizeof(cplx));
  }
  return c;
}

}  // namespace parfft::core
