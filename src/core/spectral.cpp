#include "core/spectral.hpp"

#include "common/error.hpp"
#include "core/pack.hpp"

namespace parfft::core {

void spectral_convolve(Fft3D& fft, const std::vector<cplx>& a,
                       const std::vector<cplx>& b, std::vector<cplx>& out) {
  std::vector<cplx> ahat, bhat;
  fft.forward(a, ahat);
  fft.forward(b, bhat);
  PARFFT_ASSERT(ahat.size() == bhat.size());
  for (std::size_t i = 0; i < ahat.size(); ++i) ahat[i] *= bhat[i];
  // One normalization of 1/N makes this the plain circular convolution.
  fft.backward(ahat, out, Scale::Full);
}

void apply_spectral_filter(
    Fft3D& fft, std::vector<cplx>& data,
    const std::function<cplx(idx_t, idx_t, idx_t)>& filter) {
  std::vector<cplx> hat;
  fft.forward(data, hat);
  const Box3& sbox = fft.plan().outbox();
  idx_t i = 0;
  for (idx_t a = sbox.lo[0]; a <= sbox.hi[0]; ++a)
    for (idx_t b = sbox.lo[1]; b <= sbox.hi[1]; ++b)
      for (idx_t c = sbox.lo[2]; c <= sbox.hi[2]; ++c, ++i)
        hat[static_cast<std::size_t>(i)] *= filter(a, b, c);
  fft.backward(hat, data, Scale::Full);
}

void distributed_reshape(smpi::Comm& comm, const Box3& from, const Box3& to,
                         const std::vector<cplx>& in, std::vector<cplx>& out,
                         Backend backend) {
  PARFFT_CHECK(static_cast<idx_t>(in.size()) == from.count(),
               "input does not match the source brick");
  PARFFT_CHECK(backend == Backend::Alltoall || backend == Backend::Alltoallv,
               "standalone reshape supports the collective backends");
  const auto from_all = allgather_boxes(comm, from);
  const auto to_all = allgather_boxes(comm, to);
  const ReshapePlan rp = ReshapePlan::create(from_all, to_all);
  const int me = comm.rank();
  const int R = comm.size();

  std::vector<std::size_t> scounts(static_cast<std::size_t>(R), 0),
      sdispls(static_cast<std::size_t>(R), 0),
      rcounts(static_cast<std::size_t>(R), 0),
      rdispls(static_cast<std::size_t>(R), 0);
  std::vector<cplx> sendbuf(static_cast<std::size_t>(rp.max_send_elements(me)));
  std::vector<cplx> recvbuf(static_cast<std::size_t>(rp.max_recv_elements(me)));

  const PackCost k = reshape_pack_cost(comm.options().device, rp, me,
                                       /*batch=*/1, backend);
  idx_t off = 0;
  for (const Transfer& t : rp.sends(me)) {
    const idx_t cnt = t.region.count();
    scounts[static_cast<std::size_t>(t.peer)] = static_cast<std::size_t>(cnt) * sizeof(cplx);
    sdispls[static_cast<std::size_t>(t.peer)] = static_cast<std::size_t>(off) * sizeof(cplx);
    pack_box(in.data(), from, t.region, sendbuf.data() + off);
    off += cnt;
  }
  comm.advance(k.pack);

  idx_t roff = 0;
  for (const Transfer& t : rp.recvs(me)) {
    const idx_t cnt = t.region.count();
    rcounts[static_cast<std::size_t>(t.peer)] = static_cast<std::size_t>(cnt) * sizeof(cplx);
    rdispls[static_cast<std::size_t>(t.peer)] = static_cast<std::size_t>(roff) * sizeof(cplx);
    roff += cnt;
  }
  comm.alltoallv(sendbuf.data(), scounts, sdispls, recvbuf.data(), rcounts,
                 rdispls, smpi::MemSpace::Device, to_alg(backend));

  out.assign(static_cast<std::size_t>(to.count()), cplx{});
  idx_t uoff = 0;
  for (const Transfer& t : rp.recvs(me)) {
    unpack_box(recvbuf.data() + uoff, to, t.region, out.data());
    uoff += t.region.count();
  }
  comm.advance(k.unpack);
}

}  // namespace parfft::core
