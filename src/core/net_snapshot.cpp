#include "core/net_snapshot.hpp"

#include <algorithm>

#include "util/annotations.hpp"

namespace socpinn::core {

template <typename T>
SOCPINN_HOT const nn::MatrixT<T>& TwoBranchSnapshotT<T>::forward(
    const nn::MlpSnapshotT<T>& branch, const nn::ScalerStatsT<T>& scaler,
    const nn::MatrixT<T>& panel, nn::MatrixT<T>& scaled,
    nn::ForwardWorkspaceT<T>& ws) {
  const std::size_t n = panel.cols();
  if (n <= nn::kColumnsBlock) {
    scaler.transform_columns_into(panel, scaled);
    return branch.infer_columns(scaled, ws);
  }
  // Grow the slot list before taking the gather reference: infer_columns
  // then finds every slot it needs and never reallocates the list.
  const std::size_t gather_slot = branch.num_layers() + 1;
  ws.ensure(gather_slot + 1);
  nn::MatrixT<T>& gathered = ws.buffer(gather_slot);
  for (std::size_t first = 0; first < n; first += nn::kColumnsBlock) {
    const std::size_t w = std::min(nn::kColumnsBlock, n - first);
    scaler.transform_columns_into(panel, first, w, scaled);
    const nn::MatrixT<T>& block = branch.infer_columns(scaled, ws);
    if (first == 0) {
      // SOCPINN_HOT_ALLOW(resize): warm workspace capacity, shard width fixed
      gathered.resize(block.rows(), n);
    }
    for (std::size_t r = 0; r < block.rows(); ++r) {
      for (std::size_t j = 0; j < w; ++j) gathered(r, first + j) = block(r, j);
    }
  }
  return gathered;
}

template class TwoBranchSnapshotT<float>;
template class TwoBranchSnapshotT<double>;

}  // namespace socpinn::core
