#include "grid/copier.hpp"

#include <stdexcept>

namespace fluxdiv::grid {

std::string Copier::opLabel(std::size_t i) const {
  const CopyOp& op = ops_.at(i);
  std::string label = "op " + std::to_string(i) + ": box" +
                      std::to_string(op.destBox) + "<-box" +
                      std::to_string(op.srcBox) + " sector[";
  for (int d = 0; d < SpaceDim; ++d) {
    if (d > 0) {
      label += ',';
    }
    if (op.sector[d] > 0) {
      label += '+';
    }
    label += std::to_string(op.sector[d]);
  }
  label += ']';
  return label;
}

Copier::Copier(const DisjointBoxLayout& layout, int nghost)
    : nghost_(nghost) {
  if (nghost <= 0) {
    return;
  }
  for (int d = 0; d < SpaceDim; ++d) {
    if (nghost > layout.boxSize()[d]) {
      throw std::invalid_argument(
          "Copier: nghost must not exceed the box size");
    }
  }
  for (std::size_t idx = 0; idx < layout.size(); ++idx) {
    const Box valid = layout.box(idx);
    const IntVect bc = layout.boxCoords(idx);
    // Enumerate the 26 halo sectors around the valid box. Sector (ox,oy,oz)
    // is the ghost slab offset in that direction; with nghost <= boxSize it
    // is sourced entirely from the single neighbor box at bc + offset.
    for (int oz = -1; oz <= 1; ++oz) {
      for (int oy = -1; oy <= 1; ++oy) {
        for (int ox = -1; ox <= 1; ++ox) {
          if (ox == 0 && oy == 0 && oz == 0) {
            continue;
          }
          const IntVect off(ox, oy, oz);
          IntVect rlo, rhi;
          for (int d = 0; d < SpaceDim; ++d) {
            switch (off[d]) {
            case -1:
              rlo[d] = valid.lo(d) - nghost;
              rhi[d] = valid.lo(d) - 1;
              break;
            case 0:
              rlo[d] = valid.lo(d);
              rhi[d] = valid.hi(d);
              break;
            default:
              rlo[d] = valid.hi(d) + 1;
              rhi[d] = valid.hi(d) + nghost;
              break;
            }
          }
          IntVect wrapShift;
          const std::int64_t src = layout.wrappedIndex(bc + off, wrapShift);
          if (src < 0) {
            continue; // non-periodic physical boundary: left for BCs
          }
          CopyOp op;
          op.destBox = idx;
          op.srcBox = static_cast<std::size_t>(src);
          op.destRegion = Box(rlo, rhi);
          op.srcShift = wrapShift;
          op.sector = off;
          if (op.destRegion.empty()) {
            // Degenerate sector: nothing to move. Dropping it here keeps
            // every dispatch loop (exchange, the step graphs' exchange-op
            // tasks) and bytesPerExchange() free of empty ops.
            continue;
          }
          ghostCells_ += op.destRegion.numPts();
          ops_.push_back(op);
        }
      }
    }
  }
}

} // namespace fluxdiv::grid
