#include "dad/geometry.hpp"

#include <sstream>

#include "rt/kernels.hpp"

namespace mxn::dad {

std::string Patch::to_string() const {
  std::ostringstream os;
  os << "[";
  for (int a = 0; a < ndim; ++a) {
    if (a) os << ", ";
    os << lo[a] << ":" << hi[a];
  }
  os << ")";
  return os.str();
}

namespace {

/// Emit `region` (inside `owned`) as BlockRuns in buffer order. The region
/// becomes (extent, storage stride) dimensions, innermost first: an axis
/// folds into the dimension inside it when that dimension's extent times
/// stride equals the axis's stride (the region spans the axes inside it
/// fully), and an axis of extent 1 adds no dimension. Dimension 0 is the
/// contiguous block, dimension 1 the train, the rest the loop.
template <class Emit>
void for_each_block_run(const Patch& owned, Index base, const Patch& region,
                        Emit&& emit) {
  if (region.empty()) return;
  std::array<Index, kMaxNdim> n{}, stride{}, idx{};
  int dims = 0;
  Index off = base, st = 1;
  for (int a = region.ndim - 1; a >= 0; --a) {
    const Index e = region.extent(a);
    off += (region.lo[a] - owned.lo[a]) * st;
    if (dims > 0 && n[dims - 1] * stride[dims - 1] == st) {
      n[dims - 1] *= e;
    } else if (dims == 0 || e > 1) {
      n[dims] = e;
      stride[dims] = st;
      ++dims;
    }
    st *= owned.extent(a);
  }
  rt::kernels::BlockRun r{off, n[0], dims > 1 ? stride[1] : 0,
                          dims > 1 ? n[1] : 1, 0};
  while (true) {
    emit(r);
    r.buf_off += r.block_len * r.count;
    int k = 2;
    for (; k < dims; ++k) {
      r.storage_off += stride[k];
      if (++idx[k] < n[k]) break;
      r.storage_off -= n[k] * stride[k];
      idx[k] = 0;
    }
    if (k >= dims) return;
  }
}

}  // namespace

void gather_region(const Patch& owned, Index base, const Patch& region,
                   const void* storage, void* out, std::size_t width) {
  for_each_block_run(owned, base, region, [&](const rt::kernels::BlockRun& r) {
    rt::kernels::gather_run(storage, out, width, r);
  });
}

void scatter_region(const Patch& owned, Index base, const Patch& region,
                    void* storage, const void* in, std::size_t width) {
  for_each_block_run(owned, base, region, [&](const rt::kernels::BlockRun& r) {
    rt::kernels::scatter_run(storage, in, width, r);
  });
}

namespace {

const Patch& holding(const PatchStorage& s, std::size_t i, const Patch& region) {
  if (i >= s.patches.size() || !s.patches[i].contains(region))
    throw rt::UsageError("region " + region.to_string() +
                         " is not inside local patch " + std::to_string(i));
  return s.patches[i];
}

}  // namespace

void PatchStorage::gather(std::size_t i, const Patch& region, void* out) const {
  gather_region(holding(*this, i, region), bases[i], region, data, out, width);
}

void PatchStorage::scatter(std::size_t i, const Patch& region,
                           const void* in) const {
  scatter_region(holding(*this, i, region), bases[i], region, data, in, width);
}

std::size_t PatchStorage::find(const Patch& region) const {
  for (std::size_t i = 0; i < patches.size(); ++i)
    if (patches[i].contains(region)) return i;
  throw rt::UsageError("no local patch contains region " + region.to_string());
}

}  // namespace mxn::dad
