#include "analysis/commcheck.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <utility>

#include "analysis/region_ops.hpp"

namespace fluxdiv::analysis {

using grid::IntVect;

const char* commDiagKindName(CommDiagKind k) {
  switch (k) {
  case CommDiagKind::Ok:
    return "ok";
  case CommDiagKind::GhostGap:
    return "ghost-gap";
  case CommDiagKind::DoubleWrite:
    return "double-write";
  case CommDiagKind::StrayWrite:
    return "stray-write";
  case CommDiagKind::SourceInvalid:
    return "source-invalid";
  case CommDiagKind::UnmatchedSend:
    return "unmatched-send";
  case CommDiagKind::UnmatchedRecv:
    return "unmatched-recv";
  case CommDiagKind::ExtentMismatch:
    return "extent-mismatch";
  }
  return "?";
}

std::string CommDiagnostic::message() const {
  std::ostringstream os;
  os << commDiagKindName(kind);
  if (ok()) {
    return os.str();
  }
  os << ": plan '" << plan << "'";
  if (!opA.empty()) {
    os << " | recv side: " << opA;
  }
  if (!opB.empty()) {
    os << " | send side: " << opB;
  }
  if (!region.empty()) {
    os << " | region " << region;
  }
  if (!detail.empty()) {
    os << " | " << detail;
  }
  return os.str();
}

namespace {

std::string sectorStr(const IntVect& s) {
  std::string out = "[";
  for (int d = 0; d < grid::SpaceDim; ++d) {
    if (d > 0) {
      out += ',';
    }
    if (s[d] > 0) {
      out += '+';
    }
    out += std::to_string(s[d]);
  }
  out += ']';
  return out;
}

/// One send the layout geometry *requires*: re-derived from the sender's
/// perspective, without reading the plan. For source box `srcBox` and
/// each of the 26 halo sectors of each neighbor it feeds, the region of
/// that neighbor's halo this box must supply. The map (destBox, sector)
/// -> (srcBox, sector) is a bijection over non-empty in-domain sectors,
/// so matching this list against the plan is exact in both directions.
struct DerivedSend {
  std::size_t srcBox = 0;
  std::size_t destBox = 0;
  Box destRegion;
  IntVect srcShift;
  IntVect sector;  ///< halo sector of destBox

  [[nodiscard]] std::string label() const {
    return derivedSendLabel(srcBox, destBox, sector);
  }
};

/// Halo sector `off` of `valid` grown by `nghost`: the same slab algebra
/// the Copier uses, applied from the independent derivation.
Box haloSector(const Box& valid, const IntVect& off, int nghost) {
  IntVect rlo;
  IntVect rhi;
  for (int d = 0; d < grid::SpaceDim; ++d) {
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
  return {rlo, rhi};
}

/// Enumerate every send the geometry requires, iterating source boxes
/// (the sender's schedule). For source box s and sector offset `off`,
/// the neighbor whose halo it feeds sits at boxCoords(s) - off (with
/// periodic wrap); the fed region is that neighbor's halo sector `off`.
std::vector<DerivedSend> deriveSends(const CommPlanModel& m) {
  std::vector<DerivedSend> sends;
  if (m.nghost <= 0) {
    return sends;
  }
  const grid::DisjointBoxLayout& layout = m.layout;
  for (std::size_t s = 0; s < layout.size(); ++s) {
    const IntVect bcS = layout.boxCoords(s);
    for (int oz = -1; oz <= 1; ++oz) {
      for (int oy = -1; oy <= 1; ++oy) {
        for (int ox = -1; ox <= 1; ++ox) {
          if (ox == 0 && oy == 0 && oz == 0) {
            continue;
          }
          const IntVect off(ox, oy, oz);
          IntVect destWrap;
          const std::int64_t dest =
              layout.wrappedIndex(bcS - off, destWrap);
          if (dest < 0) {
            continue;  // non-periodic physical boundary: no neighbor
          }
          const auto d = static_cast<std::size_t>(dest);
          const Box region = haloSector(layout.box(d), off, m.nghost);
          if (region.empty()) {
            continue;
          }
          IntVect srcShift;
          const std::int64_t back =
              layout.wrappedIndex(layout.boxCoords(d) + off, srcShift);
          if (back < 0 || static_cast<std::size_t>(back) != s) {
            continue;  // unreachable: the sector map is a bijection
          }
          DerivedSend ds;
          ds.srcBox = s;
          ds.destBox = d;
          ds.destRegion = region;
          ds.srcShift = srcShift;
          ds.sector = off;
          sends.push_back(ds);
        }
      }
    }
  }
  return sends;
}

/// The halo sector a ghost region sits in relative to `valid`, judged
/// per direction from the region's extremes (a naming aid for gap
/// witnesses; exact when the region stays inside one sector, as every
/// Copier op and every shaved-layer mutation does).
IntVect sectorOfRegion(const Box& region, const Box& valid) {
  IntVect off;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    if (region.hi(d) < valid.lo(d)) {
      off[d] = -1;
    } else if (region.lo(d) > valid.hi(d)) {
      off[d] = 1;
    } else {
      off[d] = 0;
    }
  }
  return off;
}

/// C1: per-destination-box exactness — gaps, double-writes, strays, and
/// source validity, each with a labeled witness.
void checkExactness(const CommPlanModel& m,
                    const std::vector<DerivedSend>& derived,
                    CommCheckReport& rep) {
  const grid::DisjointBoxLayout& layout = m.layout;
  const Box domBox = layout.domain().box();

  // Derived sends indexed by (destBox, sector) for gap witness naming.
  std::map<std::pair<std::size_t, std::array<int, 3>>, const DerivedSend*>
      bySector;
  for (const DerivedSend& ds : derived) {
    bySector[{ds.destBox,
              {ds.sector[0], ds.sector[1], ds.sector[2]}}] = &ds;
  }

  std::vector<std::vector<std::size_t>> byDest(layout.size());
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const CommOp& op = m.ops[i];
    if (op.destBox >= layout.size() || op.srcBox >= layout.size()) {
      CommDiagnostic d;
      d.kind = CommDiagKind::StrayWrite;
      d.plan = m.name;
      d.opA = op.label;
      d.region = op.destRegion;
      d.detail = "op names a box outside the layout";
      rep.diagnostics.push_back(std::move(d));
      continue;
    }
    byDest[op.destBox].push_back(i);
  }

  for (std::size_t b = 0; b < layout.size(); ++b) {
    const Box valid = layout.box(b);
    // The exchange-owned ghost region: the halo, clipped to the domain
    // in non-periodic directions only (physical-boundary ghosts belong
    // to the BC fill, not the plan; periodic halos extend past the
    // domain box and wrap).
    IntVect lo = valid.grow(m.nghost).lo();
    IntVect hi = valid.grow(m.nghost).hi();
    for (int d = 0; d < grid::SpaceDim; ++d) {
      if (!layout.domain().isPeriodic(d)) {
        lo[d] = std::max(lo[d], domBox.lo(d));
        hi[d] = std::min(hi[d], domBox.hi(d));
      }
    }
    const std::vector<Box> expected = subtractAll(Box(lo, hi), {valid});

    std::vector<Box> regions;
    CoverSet cover;
    regions.reserve(byDest[b].size());
    for (const std::size_t i : byDest[b]) {
      regions.push_back(m.ops[i].destRegion);
      cover.add(m.ops[i].destRegion);
    }

    if (const auto overlap = firstPairOverlap(regions)) {
      const CommOp& a = m.ops[byDest[b][overlap->first]];
      const CommOp& c = m.ops[byDest[b][overlap->second]];
      CommDiagnostic d;
      d.kind = CommDiagKind::DoubleWrite;
      d.plan = m.name;
      d.opA = a.label;
      d.opB = c.label;
      d.region = overlap->region;
      d.detail = "two ops write the same ghost cells of box " +
                 std::to_string(b);
      rep.diagnostics.push_back(std::move(d));
    }

    for (const std::size_t i : byDest[b]) {
      const CommOp& op = m.ops[i];
      const std::vector<Box> stray = subtractAll(op.destRegion, expected);
      if (!stray.empty()) {
        CommDiagnostic d;
        d.kind = CommDiagKind::StrayWrite;
        d.plan = m.name;
        d.opA = op.label;
        d.region = stray.front();
        d.detail = "write outside the exchange-owned ghost halo of box " +
                   std::to_string(b);
        rep.diagnostics.push_back(std::move(d));
      }
      const std::vector<Box> badSrc =
          subtractAll(op.srcRegion(), {layout.box(op.srcBox)});
      if (!badSrc.empty()) {
        CommDiagnostic d;
        d.kind = CommDiagKind::SourceInvalid;
        d.plan = m.name;
        d.opA = op.label;
        d.region = badSrc.front();
        d.detail = "source cells outside the valid region of box " +
                   std::to_string(op.srcBox);
        rep.diagnostics.push_back(std::move(d));
      }
    }

    for (const Box& piece : expected) {
      for (const Box& missing : cover.missingPieces(piece)) {
        const IntVect off = sectorOfRegion(missing, valid);
        const auto it = bySector.find({b, {off[0], off[1], off[2]}});
        CommDiagnostic d;
        d.kind = CommDiagKind::GhostGap;
        d.plan = m.name;
        d.opA = "box" + std::to_string(b) + " ghost halo";
        if (it != bySector.end()) {
          d.opB = it->second->label();
        }
        d.region = missing;
        d.detail = "no op fills these exchange-owned ghost cells";
        rep.diagnostics.push_back(std::move(d));
      }
    }
  }
}

/// C2: match the plan (the posted recvs) against the derived sends. Each
/// violation names its recv-side op and, where one exists, the derived
/// send it disagrees with.
void checkMatching(const CommPlanModel& m,
                   const std::vector<DerivedSend>& derived,
                   CommCheckReport& rep) {
  // (srcBox, destBox) plus region lo/hi and source shift, flattened to
  // ordered scalars (IntVect has no operator<).
  using Key =
      std::pair<std::pair<std::size_t, std::size_t>, std::array<int, 9>>;
  const auto keyOf = [](std::size_t src, std::size_t dest, const Box& r,
                        const IntVect& shift) {
    return Key{{src, dest},
               {r.lo(0), r.lo(1), r.lo(2), r.hi(0), r.hi(1), r.hi(2),
                shift[0], shift[1], shift[2]}};
  };

  std::map<Key, std::vector<std::size_t>> derivedByKey;
  for (std::size_t j = 0; j < derived.size(); ++j) {
    const DerivedSend& ds = derived[j];
    derivedByKey[keyOf(ds.srcBox, ds.destBox, ds.destRegion, ds.srcShift)]
        .push_back(j);
  }

  std::vector<bool> used(derived.size(), false);
  std::vector<std::size_t> unmatchedOps;
  for (std::size_t i = 0; i < m.ops.size(); ++i) {
    const CommOp& op = m.ops[i];
    const auto it = derivedByKey.find(
        keyOf(op.srcBox, op.destBox, op.destRegion, op.srcShift));
    bool matched = false;
    if (it != derivedByKey.end()) {
      for (const std::size_t j : it->second) {
        if (!used[j]) {
          used[j] = true;
          matched = true;
          break;
        }
      }
    }
    if (!matched) {
      unmatchedOps.push_back(i);
    }
  }

  // Pair leftover recvs with leftover sends between the same box pair
  // over intersecting (or identical) regions: the endpoints *tried* to
  // talk but disagree on extent or source cells.
  std::vector<std::size_t> leftoverSends;
  for (std::size_t j = 0; j < derived.size(); ++j) {
    if (!used[j]) {
      leftoverSends.push_back(j);
    }
  }
  std::vector<bool> sendConsumed(leftoverSends.size(), false);
  for (const std::size_t i : unmatchedOps) {
    const CommOp& op = m.ops[i];
    bool paired = false;
    for (std::size_t k = 0; k < leftoverSends.size(); ++k) {
      if (sendConsumed[k]) {
        continue;
      }
      const DerivedSend& ds = derived[leftoverSends[k]];
      if (ds.srcBox != op.srcBox || ds.destBox != op.destBox) {
        continue;
      }
      const bool sameRegion = ds.destRegion == op.destRegion;
      if (!sameRegion && !ds.destRegion.intersects(op.destRegion)) {
        continue;
      }
      sendConsumed[k] = true;
      paired = true;
      CommDiagnostic d;
      d.kind = CommDiagKind::ExtentMismatch;
      d.plan = m.name;
      d.opA = op.label;
      d.opB = ds.label();
      if (sameRegion) {
        std::ostringstream os;
        os << "source shift disagrees: plan " << op.srcShift
           << " vs geometry " << ds.srcShift;
        d.detail = os.str();
        d.region = op.destRegion;
      } else {
        const std::vector<Box> missing =
            subtractAll(ds.destRegion, {op.destRegion});
        d.region = missing.empty()
                       ? subtractAll(op.destRegion,
                                     {ds.destRegion}).front()
                       : missing.front();
        std::ostringstream os;
        os << "extent disagrees: plan " << op.destRegion
           << " vs geometry " << ds.destRegion;
        d.detail = os.str();
      }
      rep.diagnostics.push_back(std::move(d));
      break;
    }
    if (!paired) {
      CommDiagnostic d;
      d.kind = CommDiagKind::UnmatchedSend;
      d.plan = m.name;
      d.opA = op.label;
      d.region = op.destRegion;
      d.detail = "recv posted but the geometry requires no such send "
                 "from box " +
                 std::to_string(op.srcBox);
      rep.diagnostics.push_back(std::move(d));
    }
  }
  for (std::size_t k = 0; k < leftoverSends.size(); ++k) {
    if (sendConsumed[k]) {
      continue;
    }
    const DerivedSend& ds = derived[leftoverSends[k]];
    CommDiagnostic d;
    d.kind = CommDiagKind::UnmatchedRecv;
    d.plan = m.name;
    d.opB = ds.label();
    d.region = ds.destRegion;
    d.detail = "geometry requires this send but the plan posts no recv "
               "for it on box " +
               std::to_string(ds.destBox);
    rep.diagnostics.push_back(std::move(d));
  }
}

}  // namespace

std::string derivedSendLabel(std::size_t srcBox, std::size_t destBox,
                             const IntVect& sector) {
  return "send box" + std::to_string(srcBox) + "->box" +
         std::to_string(destBox) + " sector" + sectorStr(sector);
}

CommPlanModel buildCommPlanModel(const grid::DisjointBoxLayout& layout,
                                 const grid::Copier& copier,
                                 std::string name) {
  CommPlanModel m;
  if (name.empty()) {
    const IntVect g = layout.gridSize();
    const IntVect bs = layout.boxSize();
    std::ostringstream os;
    os << "exchange " << g[0] << "x" << g[1] << "x" << g[2] << " boxes of "
       << bs[0] << "x" << bs[1] << "x" << bs[2] << " g" << copier.nGhost();
    m.name = os.str();
  } else {
    m.name = std::move(name);
  }
  m.layout = layout;
  m.nghost = copier.nGhost();
  m.ops.reserve(copier.ops().size());
  for (std::size_t i = 0; i < copier.ops().size(); ++i) {
    const grid::CopyOp& op = copier.ops()[i];
    CommOp co;
    co.destBox = op.destBox;
    co.srcBox = op.srcBox;
    co.destRegion = op.destRegion;
    co.srcShift = op.srcShift;
    co.sector = op.sector;
    co.label = copier.opLabel(i);
    m.ops.push_back(std::move(co));
  }
  return m;
}

CommCheckReport checkCommPlan(const CommPlanModel& model) {
  CommCheckReport rep;
  const std::vector<DerivedSend> derived = deriveSends(model);
  checkExactness(model, derived, rep);
  checkMatching(model, derived, rep);
  return rep;
}

}  // namespace fluxdiv::analysis
