// Implementation of the kernel footprint contract checker. See
// kernelcheck.hpp for the proof obligations (K1/K2/K3) and the
// differential-probing design; docs/static-analysis.md for the worked
// examples.

#include "analysis/kernelcheck.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "analysis/graphcheck.hpp"
#include "grid/tracingfab.hpp"
#include "kernels/pencil.hpp"
#include "kernels/reference.hpp"

namespace fluxdiv::analysis {

namespace {

using grid::Box;
using grid::FArrayBox;
using grid::IntVect;
using grid::Pitch;
using grid::Real;
using grid::TraceSlot;
using grid::TracingFab;
using kernels::kNumComp;
using kernels::kNumGhost;
using kernels::Stage;
using kernels::velocityComp;

constexpr const char* kDirNames[3] = {"x", "y", "z"};

/// Extra input margin beyond the declared ghost depth: an undeclared read
/// this far outside the contract is still observed, not segfaulted.
constexpr int kProbeMargin = 2;
/// Output allocation margin around the output region, so out-of-region
/// writes land in observable slots instead of out-of-bounds memory.
constexpr int kOutMargin = 2;
/// Cap on repetitive probe diagnostics of one kind (pad reads, write
/// gaps): one witness proves the violation, thousands obscure it.
constexpr int kMaxDiagsPerKind = 8;

std::string fmtVect(const IntVect& v) {
  std::ostringstream os;
  os << "(" << v[0] << "," << v[1] << "," << v[2] << ")";
  return os.str();
}

std::string fmtBox(const Box& b) {
  if (b.empty()) {
    return "[empty]";
  }
  return "[" + fmtVect(b.lo()) + ".." + fmtVect(b.hi()) + "]";
}

struct IvLess {
  bool operator()(const IntVect& a, const IntVect& b) const {
    for (int d = 0; d < 3; ++d) {
      if (a[d] != b[d]) {
        return a[d] < b[d];
      }
    }
    return false;
  }
};

/// Dense cell key for hash sets: coordinates stay within +-512 of the
/// origin at every probe size this checker runs.
std::int64_t cellKey(const IntVect& p) {
  assert(p[0] > -512 && p[0] < 512 && p[1] > -512 && p[1] < 512 &&
         p[2] > -512 && p[2] < 512);
  return ((static_cast<std::int64_t>(p[0]) + 512) << 20) |
         ((static_cast<std::int64_t>(p[1]) + 512) << 10) |
         (static_cast<std::int64_t>(p[2]) + 512);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::vector<IntVect> boxPoints(const Box& b) {
  std::vector<IntVect> pts;
  pts.reserve(static_cast<std::size_t>(b.numPts()));
  // x-inner iteration yields lexicographic-in-(z,y,x); re-sort to the
  // checker's canonical (x,y,z)-lexicographic order.
  forEachCell(b, [&](int i, int j, int k) { pts.emplace_back(i, j, k); });
  std::sort(pts.begin(), pts.end(), IvLess{});
  return pts;
}

void mergePoints(std::vector<IntVect>& into, const std::vector<IntVect>& add) {
  for (const IntVect& p : add) {
    if (std::find(into.begin(), into.end(), p) == into.end()) {
      into.push_back(p);
    }
  }
  std::sort(into.begin(), into.end(), IvLess{});
}

IntVect clampTo(const IntVect& p, const Box& b) {
  IntVect q = p;
  for (int d = 0; d < 3; ++d) {
    q[d] = std::min(std::max(q[d], b.lo(d)), b.hi(d));
  }
  return q;
}

Box minkowski(const Box& region, const Box& offsets) {
  if (region.empty() || offsets.empty()) {
    return {};
  }
  return {region.lo() + offsets.lo(), region.hi() + offsets.hi()};
}

Box hullOf(const std::vector<IntVect>& pts) {
  if (pts.empty()) {
    return {};
  }
  IntVect lo = pts.front();
  IntVect hi = pts.front();
  for (const IntVect& p : pts) {
    lo = IntVect::min(lo, p);
    hi = IntVect::max(hi, p);
  }
  return {lo, hi};
}

Box hullUnion(const Box& a, const Box& b) {
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  return {IntVect::min(a.lo(), b.lo()), IntVect::max(a.hi(), b.hi())};
}

/// Declared read offsets of `shape` for dependence pair (outComp, inComp),
/// straight from kernels/footprint.hpp — the contract under proof.
std::vector<IntVect> declaredReadOffsets(const KernelShape& shape, int oc,
                                         int ic) {
  if (shape.dir >= 0) {
    // Single-stage driver: input comp 0 is the primary field, comp 1 (when
    // present) the face velocity — both read through the stage's offsets.
    if (oc != 0 || ic >= shape.inComps) {
      return {};
    }
    return boxPoints(kernels::readOffsets(shape.stage, shape.dir));
  }
  // Whole pipeline over <rho,u,v,w,e>: output comp c consumes its own
  // component through every direction's fused stencil, plus the normal
  // velocity component through direction d's fused stencil.
  std::vector<IntVect> pts;
  for (int d = 0; d < 3; ++d) {
    if (ic == oc) {
      mergePoints(pts, boxPoints(kernels::fusedCellReadOffsets(d)));
    } else if (ic == velocityComp(d)) {
      mergePoints(pts, boxPoints(kernels::fusedCellReadOffsets(d)));
    }
  }
  return pts;
}

std::string roleLabel(int oc, int ic) {
  return "read c" + std::to_string(ic) + "->c" + std::to_string(oc);
}

/// Per-offset observation of one dependence role during probing.
struct OffsetObs {
  IntVect witness;                 ///< one output cell showing the offset
  std::vector<std::int64_t> cells; ///< every output cell showing it
};

using OffsetMap = std::map<IntVect, OffsetObs, IvLess>;

void recordObs(OffsetMap& m, const IntVect& offset, const IntVect& outCell) {
  auto [it, inserted] = m.try_emplace(offset);
  if (inserted) {
    it->second.witness = outCell;
  }
  it->second.cells.push_back(cellKey(outCell));
}

void finishRole(RoleFootprint& r, OffsetMap& m) {
  for (auto& [offset, obs] : m) {
    r.observed.push_back(offset);
    r.witnesses.push_back(obs.witness);
    std::sort(obs.cells.begin(), obs.cells.end());
    obs.cells.erase(std::unique(obs.cells.begin(), obs.cells.end()),
                    obs.cells.end());
  }
}

Real perturbValue(Real orig, int trial) {
  // Two structurally different perturbations of a value in [1, 2): an
  // exact cancellation of one delta through the kernel's arithmetic
  // cannot also cancel the other.
  return orig * (1.25 + 0.5 * static_cast<Real>(trial)) +
         0.0625 * static_cast<Real>(trial + 1);
}

/// Structured input sample for allocations too large to probe
/// exhaustively: axis pencils through the output center (every declared
/// axis-aligned offset stays exercised for K2), corner neighborhoods
/// (absolute-index bugs cluster there), pad lanes, and a seeded lattice.
std::vector<TraceSlot> sampleInputSlots(const TracingFab& in,
                                        const Box& outRegion,
                                        const ProbeOptions& opts) {
  const Box ib = in.fab().box();
  const int nComp = in.fab().nComp();
  const std::int64_t rowLen = ib.size(0);
  const std::int64_t slack = in.fab().pitchSlack();

  std::vector<TraceSlot> slots;
  std::unordered_set<std::int64_t> seen;
  auto add = [&](const IntVect& cell, int comp, bool pad) {
    const std::int64_t key =
        cellKey(cell) | (static_cast<std::int64_t>(comp) << 32);
    if (seen.insert(key).second) {
      slots.push_back({cell, comp, pad});
    }
  };

  const IntVect center{(outRegion.lo(0) + outRegion.hi(0)) / 2,
                       (outRegion.lo(1) + outRegion.hi(1)) / 2,
                       (outRegion.lo(2) + outRegion.hi(2)) / 2};
  for (int c = 0; c < nComp; ++c) {
    for (int d = 0; d < 3; ++d) {
      for (int v = ib.lo(d); v <= ib.hi(d); ++v) {
        IntVect p = center;
        p[d] = v;
        add(p, c, false);
      }
    }
  }
  for (int ci = 0; ci < 8; ++ci) {
    const IntVect corner{(ci & 1) != 0 ? ib.hi(0) : ib.lo(0),
                         (ci & 2) != 0 ? ib.hi(1) : ib.lo(1),
                         (ci & 4) != 0 ? ib.hi(2) : ib.lo(2)};
    const IntVect inward{(ci & 1) != 0 ? -1 : 1, (ci & 2) != 0 ? -1 : 1,
                         (ci & 4) != 0 ? -1 : 1};
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        for (int c = 0; c < 3; ++c) {
          const IntVect p = corner + IntVect{inward[0] * a, inward[1] * b,
                                             inward[2] * c};
          add(p, 0, false);
        }
      }
    }
  }
  if (slack > 0) {
    for (int row = 0; row < 16; ++row) {
      const std::uint64_t h = mix64(opts.seed * 1315423911ULL +
                                    static_cast<std::uint64_t>(row));
      const int j = ib.lo(1) + static_cast<int>(h % static_cast<std::uint64_t>(
                                                        ib.size(1)));
      const int k = ib.lo(2) +
                    static_cast<int>((h >> 16) %
                                     static_cast<std::uint64_t>(ib.size(2)));
      const int c = static_cast<int>((h >> 32) %
                                     static_cast<std::uint64_t>(nComp));
      for (std::int64_t s = 0; s < slack; ++s) {
        add({ib.lo(0) + static_cast<int>(rowLen + s), j, k}, c, true);
      }
    }
  }
  std::uint64_t ctr = opts.seed * 2654435761ULL;
  while (static_cast<int>(slots.size()) < opts.sampleTarget) {
    const std::uint64_t h = mix64(++ctr);
    const IntVect p{
        ib.lo(0) + static_cast<int>(h % static_cast<std::uint64_t>(rowLen)),
        ib.lo(1) + static_cast<int>((h >> 20) %
                                    static_cast<std::uint64_t>(ib.size(1))),
        ib.lo(2) + static_cast<int>((h >> 40) %
                                    static_cast<std::uint64_t>(ib.size(2)))};
    add(p, static_cast<int>((h >> 60) % static_cast<std::uint64_t>(nComp)),
        false);
  }
  return slots;
}

/// Output slots for self-dependence probing: a 3x3x3 lattice of the output
/// region per component (does the kernel accumulate or overwrite?), plus
/// margin corners and pad lanes (does it read prior out-of-region output?).
std::vector<TraceSlot> outputProbeSlots(const TracingFab& out,
                                        const Box& outRegion) {
  const Box ob = out.fab().box();
  const int nComp = out.fab().nComp();
  std::vector<TraceSlot> slots;
  const IntVect lo = outRegion.lo();
  const IntVect hi = outRegion.hi();
  const IntVect mid{(lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2,
                    (lo[2] + hi[2]) / 2};
  for (int c = 0; c < nComp; ++c) {
    for (const int i : {lo[0], mid[0], hi[0]}) {
      for (const int j : {lo[1], mid[1], hi[1]}) {
        for (const int k : {lo[2], mid[2], hi[2]}) {
          const TraceSlot s{{i, j, k}, c, false};
          if (std::none_of(slots.begin(), slots.end(), [&](const TraceSlot& t) {
                return t.comp == s.comp && t.cell == s.cell;
              })) {
            slots.push_back(s);
          }
        }
      }
    }
  }
  for (int ci = 0; ci < 8; ++ci) {
    slots.push_back({{(ci & 1) != 0 ? ob.hi(0) : ob.lo(0),
                      (ci & 2) != 0 ? ob.hi(1) : ob.lo(1),
                      (ci & 4) != 0 ? ob.hi(2) : ob.lo(2)},
                     0,
                     false});
  }
  const std::int64_t slack = out.fab().pitchSlack();
  for (std::int64_t s = 0; s < std::min<std::int64_t>(slack, 4); ++s) {
    slots.push_back(
        {{ob.lo(0) + static_cast<int>(ob.size(0) + s), ob.lo(1), ob.lo(2)},
         0,
         true});
  }
  return slots;
}

const char* kernelDiagKindName(KernelDiagKind k) {
  switch (k) {
  case KernelDiagKind::Ok:
    return "ok";
  case KernelDiagKind::UndeclaredRead:
    return "undeclared-read";
  case KernelDiagKind::UndeclaredWrite:
    return "undeclared-write";
  case KernelDiagKind::Overdeclared:
    return "overdeclared";
  case KernelDiagKind::NonAffineAccess:
    return "non-affine-access";
  case KernelDiagKind::ContractMismatch:
    return "contract-mismatch";
  }
  return "?";
}

} // namespace

std::string KernelDiag::message() const {
  std::ostringstream os;
  os << "[" << kernelDiagKindName(kind) << "] " << kernel << ": " << stage;
  switch (kind) {
  case KernelDiagKind::Ok:
    os << " contract holds";
    break;
  case KernelDiagKind::UndeclaredRead:
    os << " " << role << " at offset " << fmtVect(offset)
       << " outside the declared footprint";
    break;
  case KernelDiagKind::UndeclaredWrite:
    os << " " << role << " at offset " << fmtVect(offset)
       << " outside the declared write region";
    break;
  case KernelDiagKind::Overdeclared:
    os << " " << role << " declares offset " << fmtVect(offset)
       << " but the kernel never exercises it";
    break;
  case KernelDiagKind::NonAffineAccess:
    os << " " << role << " offset " << fmtVect(offset)
       << " is not a uniform stencil offset";
    break;
  case KernelDiagKind::ContractMismatch:
    os << " " << role << " disagrees with the proven footprint";
    break;
  }
  if (!repro.empty()) {
    os << "; repro: out region " << fmtBox(repro);
  }
  if (!detail.empty()) {
    os << " (" << detail << ")";
  }
  return os.str();
}

std::string kernelStageTag(Stage stage, int dir) {
  if (dir >= 0 && dir < 3) {
    return std::string(kernels::stageName(stage)) + "[d=" + kDirNames[dir] +
           "]";
  }
  return std::string(kernels::stageName(stage)) + "[pipeline]";
}

KernelFootprintModel inferFootprint(const KernelShape& shape,
                                    const ProbeOptions& opts) {
  assert(shape.fn && "kernel shape without a callable");
  KernelFootprintModel m;
  m.kernel = shape.name;
  m.stage = shape.stage;
  m.dir = shape.dir;
  m.pitch = opts.pitch;

  const Box outCells = Box::cube(opts.boxSize, opts.origin);
  const Box outRegion =
      shape.faceOutput ? outCells.faceBox(shape.dir) : outCells;
  m.probeRegion = outRegion;
  const Box inBox = outRegion.grow(kNumGhost + kProbeMargin);
  const Box outBox = outRegion.grow(kOutMargin);
  const std::string stageTag = kernelStageTag(shape.stage, shape.dir);

  TracingFab in;
  TracingFab out;
  in.define(inBox, shape.inComps, opts.pitch, opts.seed);
  out.define(outBox, shape.outComps, opts.pitch,
             opts.seed ^ 0x9E3779B97F4A7C15ULL);

  auto run = [&] {
    shape.fn(in.fab(), out.fab(), outRegion, opts.scale);
    ++m.probes;
  };
  auto pushDiag = [&](KernelDiagKind kind, const std::string& role,
                      const IntVect& offset, const IntVect& witness,
                      std::string detail) {
    KernelDiag d;
    d.kind = kind;
    d.kernel = shape.name;
    d.stage = stageTag;
    d.role = role;
    d.offset = offset;
    d.repro = {witness, witness};
    d.detail = std::move(detail);
    m.probeDiags.push_back(std::move(d));
  };

  // ---- baseline run: the reference output state and the write set.
  run();
  const std::vector<TraceSlot> writeSet = out.changedSinceSnapshot();
  out.captureReference();

  m.writes.role = "write";
  m.writes.outComp = 0;
  m.writes.inComp = -1;
  m.writes.declared = boxPoints(kernels::writeOffsets(
      shape.stage, shape.dir >= 0 ? shape.dir : 0));

  OffsetMap writeObs;
  std::vector<std::unordered_set<std::int64_t>> writtenKeys(
      static_cast<std::size_t>(shape.outComps));
  int padWriteDiags = 0;
  for (const TraceSlot& w : writeSet) {
    if (w.pad) {
      if (padWriteDiags++ < kMaxDiagsPerKind) {
        pushDiag(KernelDiagKind::UndeclaredWrite, "write",
                 w.cell - clampTo(w.cell, outRegion), clampTo(w.cell, outRegion),
                 "write into pitch-pad lane at " + fmtVect(w.cell) + " c" +
                     std::to_string(w.comp));
      }
      continue;
    }
    if (outRegion.contains(w.cell)) {
      recordObs(writeObs, IntVect::zero(), w.cell);
      writtenKeys[static_cast<std::size_t>(w.comp)].insert(cellKey(w.cell));
    } else {
      recordObs(writeObs, w.cell - clampTo(w.cell, outRegion),
                clampTo(w.cell, outRegion));
    }
  }
  finishRole(m.writes, writeObs);

  // Write-coverage gap: a declared output cell the kernel never produced.
  int gapDiags = 0;
  for (int c = 0; c < shape.outComps && gapDiags < kMaxDiagsPerKind; ++c) {
    forEachCell(outRegion, [&](int i, int j, int k) {
      const IntVect p{i, j, k};
      if (gapDiags < kMaxDiagsPerKind &&
          writtenKeys[static_cast<std::size_t>(c)].count(cellKey(p)) == 0) {
        ++gapDiags;
        KernelDiag d;
        d.kind = KernelDiagKind::Overdeclared;
        d.kernel = shape.name;
        d.stage = stageTag;
        d.role = "write";
        d.offset = IntVect::zero();
        d.repro = {p, p};
        d.detail = "declared write region cell " + fmtVect(p) + " c" +
                   std::to_string(c) + " never written";
        m.probeDiags.push_back(std::move(d));
      }
    });
  }

  // ---- self-dependence: does the kernel consume prior output contents?
  m.output.role = "output";
  m.output.outComp = 0;
  m.output.inComp = -1;
  if (shape.outputDep == OutputDep::Accumulate) {
    m.output.declared.push_back(IntVect::zero());
  }
  OffsetMap outObs;
  int outPadDiags = 0;
  for (const TraceSlot& s : outputProbeSlots(out, outRegion)) {
    for (int t = 0; t < opts.trials; ++t) {
      out.restore();
      const Real orig = out.value(s);
      out.set(s, perturbValue(orig, t));
      run();
      for (const TraceSlot& q : out.changedSinceReference()) {
        if (q.cell == s.cell && q.comp == s.comp && q.pad == s.pad) {
          const bool written =
              !s.pad && outRegion.contains(s.cell) &&
              writtenKeys[static_cast<std::size_t>(s.comp)].count(
                  cellKey(s.cell)) != 0;
          if (written) {
            recordObs(outObs, IntVect::zero(), q.cell);
          }
          continue; // otherwise just our own perturbation persisting
        }
        if (q.pad || !outRegion.contains(q.cell)) {
          continue; // the write itself is already diagnosed above
        }
        if (s.pad) {
          if (outPadDiags++ < kMaxDiagsPerKind) {
            pushDiag(KernelDiagKind::UndeclaredRead, "output",
                     s.cell - q.cell, q.cell,
                     "output cell depends on prior contents of pad lane " +
                         fmtVect(s.cell));
          }
          continue;
        }
        recordObs(outObs, s.cell - q.cell, q.cell);
      }
    }
  }
  out.restore();
  finishRole(m.output, outObs);

  // ---- differential read probing.
  for (int oc = 0; oc < shape.outComps; ++oc) {
    for (int ic = 0; ic < shape.inComps; ++ic) {
      RoleFootprint r;
      r.role = roleLabel(oc, ic);
      r.outComp = oc;
      r.inComp = ic;
      r.declared = declaredReadOffsets(shape, oc, ic);
      m.reads.push_back(std::move(r));
    }
  }
  std::map<std::pair<int, int>, OffsetMap> readObs;

  const bool exhaustive =
      opts.exhaustiveSlotLimit > 0 &&
      static_cast<std::int64_t>(in.fab().size()) <= opts.exhaustiveSlotLimit;
  const std::vector<TraceSlot> probeSlots =
      exhaustive ? in.allSlots() : sampleInputSlots(in, outRegion, opts);

  std::vector<std::unordered_set<std::int64_t>> probedKeys(
      static_cast<std::size_t>(shape.inComps));
  for (const TraceSlot& u : probeSlots) {
    if (!u.pad) {
      probedKeys[static_cast<std::size_t>(u.comp)].insert(cellKey(u.cell));
    }
  }

  int padReadDiags = 0;
  for (const TraceSlot& u : probeSlots) {
    const Real orig = in.value(u);
    for (int t = 0; t < opts.trials; ++t) {
      in.set(u, perturbValue(orig, t));
      out.restore();
      run();
      for (const TraceSlot& q : out.changedSinceReference()) {
        if (q.pad || !outRegion.contains(q.cell)) {
          continue; // out-of-region writes are diagnosed via the write set
        }
        if (u.pad) {
          if (padReadDiags++ < kMaxDiagsPerKind) {
            pushDiag(KernelDiagKind::UndeclaredRead, roleLabel(q.comp, u.comp),
                     u.cell - q.cell, q.cell,
                     "output depends on input pitch-pad lane " +
                         fmtVect(u.cell) + " c" + std::to_string(u.comp));
          }
          continue;
        }
        recordObs(readObs[{q.comp, u.comp}], u.cell - q.cell, q.cell);
      }
    }
    in.set(u, orig);
  }
  out.restore();

  for (RoleFootprint& r : m.reads) {
    finishRole(r, readObs[{r.outComp, r.inComp}]);
  }

  // ---- affine uniformity: every observed offset must hold at *every*
  // output cell whose corresponding input slot was probed. A dependence
  // present at some cells and absent at others is not an offset stencil.
  int nonAffineDiags = 0;
  for (const RoleFootprint& r : m.reads) {
    const OffsetMap& obs = readObs[{r.outComp, r.inComp}];
    const auto& probed = probedKeys[static_cast<std::size_t>(r.inComp)];
    const auto& written = writtenKeys[static_cast<std::size_t>(r.outComp)];
    for (const auto& [offset, data] : obs) {
      if (nonAffineDiags >= kMaxDiagsPerKind) {
        break;
      }
      if (data.cells.size() == written.size()) {
        continue; // observed everywhere it could be
      }
      forEachCell(outRegion, [&](int i, int j, int k) {
        const IntVect p{i, j, k};
        if (nonAffineDiags >= kMaxDiagsPerKind ||
            written.count(cellKey(p)) == 0 ||
            probed.count(cellKey(p + offset)) == 0) {
          return;
        }
        if (!std::binary_search(data.cells.begin(), data.cells.end(),
                                cellKey(p))) {
          ++nonAffineDiags;
          pushDiag(KernelDiagKind::NonAffineAccess, r.role, offset, p,
                   "dependence observed at " + fmtVect(data.witness) +
                       " but absent at " + fmtVect(p));
        }
      });
    }
  }
  return m;
}

KernelFootprintModel
inferFootprintAcross(const KernelShape& shape, const std::vector<int>& sizes,
                     const std::vector<grid::Pitch>& pitches,
                     ProbeOptions opts) {
  KernelFootprintModel first;
  bool haveFirst = false;
  std::unordered_set<std::string> diagKeys;
  auto diagKey = [](const KernelDiag& d) {
    return std::string(kernelDiagKindName(d.kind)) + "|" + d.role + "|" +
           fmtVect(d.offset);
  };
  auto compareRole = [&](const RoleFootprint& a, const RoleFootprint& b,
                         const std::string& cfg) {
    if (a.observed == b.observed) {
      return;
    }
    std::vector<IntVect> diff;
    for (const IntVect& o : a.observed) {
      if (std::find(b.observed.begin(), b.observed.end(), o) ==
          b.observed.end()) {
        diff.push_back(o);
      }
    }
    for (const IntVect& o : b.observed) {
      if (std::find(a.observed.begin(), a.observed.end(), o) ==
          a.observed.end()) {
        diff.push_back(o);
      }
    }
    KernelDiag d;
    d.kind = KernelDiagKind::NonAffineAccess;
    d.kernel = first.kernel;
    d.stage = kernelStageTag(first.stage, first.dir);
    d.role = a.role;
    d.offset = diff.empty() ? IntVect::zero() : diff.front();
    d.repro = first.probeRegion;
    d.detail = "observed offset set differs at " + cfg +
               " -> access is size- or pitch-dependent, not affine";
    if (diagKeys.insert(diagKey(d)).second) {
      first.probeDiags.push_back(std::move(d));
    }
  };

  for (const grid::Pitch pitch : pitches) {
    for (const int size : sizes) {
      ProbeOptions o = opts;
      o.boxSize = size;
      o.pitch = pitch;
      KernelFootprintModel m = inferFootprint(shape, o);
      if (!haveFirst) {
        haveFirst = true;
        for (const KernelDiag& d : m.probeDiags) {
          diagKeys.insert(diagKey(d));
        }
        first = std::move(m);
        continue;
      }
      const std::string cfg =
          "boxsize " + std::to_string(size) + " pitch " +
          (pitch == grid::Pitch::Padded ? "padded" : "dense");
      assert(first.reads.size() == m.reads.size());
      for (std::size_t i = 0; i < first.reads.size(); ++i) {
        compareRole(first.reads[i], m.reads[i], cfg);
      }
      compareRole(first.output, m.output, cfg);
      compareRole(first.writes, m.writes, cfg);
      first.probes += m.probes;
      for (KernelDiag& d : m.probeDiags) {
        if (diagKeys.insert(diagKey(d)).second) {
          first.probeDiags.push_back(std::move(d));
        }
      }
    }
  }
  return first;
}

KernelCheckReport checkKernelFootprints(const KernelFootprintModel& m) {
  KernelCheckReport rep;
  rep.kernel = m.kernel;
  rep.probes = m.probes;
  const std::string stageTag = kernelStageTag(m.stage, m.dir);

  auto checkRole = [&](const RoleFootprint& r, KernelDiagKind excessKind) {
    ++rep.rolesChecked;
    for (std::size_t i = 0; i < r.observed.size(); ++i) {
      const IntVect& o = r.observed[i];
      if (std::find(r.declared.begin(), r.declared.end(), o) !=
          r.declared.end()) {
        continue;
      }
      KernelDiag d;
      d.kind = excessKind;
      d.kernel = m.kernel;
      d.stage = stageTag;
      d.role = r.role;
      d.offset = o;
      if (i < r.witnesses.size()) {
        d.repro = {r.witnesses[i], r.witnesses[i]};
      }
      rep.diagnostics.push_back(std::move(d));
    }
    for (const IntVect& o : r.declared) {
      if (std::find(r.observed.begin(), r.observed.end(), o) !=
          r.observed.end()) {
        continue;
      }
      KernelDiag d;
      d.kind = KernelDiagKind::Overdeclared;
      d.kernel = m.kernel;
      d.stage = stageTag;
      d.role = r.role;
      d.offset = o;
      d.repro = m.probeRegion;
      rep.advisories.push_back(std::move(d));
    }
  };

  for (const RoleFootprint& r : m.reads) {
    rep.declaredOffsets += static_cast<int>(r.declared.size());
    checkRole(r, KernelDiagKind::UndeclaredRead);
  }
  checkRole(m.output, KernelDiagKind::UndeclaredRead);
  checkRole(m.writes, KernelDiagKind::UndeclaredWrite);

  for (const KernelDiag& d : m.probeDiags) {
    if (d.kind == KernelDiagKind::Overdeclared) {
      rep.advisories.push_back(d);
    } else {
      rep.diagnostics.push_back(d);
    }
  }
  return rep;
}

ProvenFootprints declaredFootprints() {
  ProvenFootprints p;
  for (int d = 0; d < 3; ++d) {
    p.fused[static_cast<std::size_t>(d)] = kernels::fusedCellReadOffsets(d);
  }
  return p;
}

ProvenFootprints
extractProven(const std::vector<KernelFootprintModel>& models) {
  ProvenFootprints p = declaredFootprints();
  auto roleHull = [](const KernelFootprintModel& m, int oc, int ic) {
    for (const RoleFootprint& r : m.reads) {
      if (r.outComp == oc && r.inComp == ic) {
        return hullOf(r.observed);
      }
    }
    return Box{};
  };
  for (const KernelFootprintModel& m : models) {
    if (m.dir >= 0 && m.stage == Stage::FusedCell) {
      const Box h = roleHull(m, 0, 0);
      if (!h.empty()) {
        p.fused[static_cast<std::size_t>(m.dir)] = h;
      }
    } else if (m.dir < 0) {
      // Pipeline model: out comp 0 (rho) reads comp velocityComp(d) only
      // through direction d's fused stencil — a per-direction isolate.
      for (int d = 0; d < 3; ++d) {
        const Box h = roleHull(m, 0, velocityComp(d));
        if (!h.empty()) {
          p.fused[static_cast<std::size_t>(d)] = h;
        }
      }
    }
  }
  return p;
}

std::vector<KernelDiag>
checkGraphFootprints(const TaskGraphModel& m, const ProvenFootprints& proven) {
  std::vector<KernelDiag> out;

  auto covered = [](const Box& need, const std::vector<Box>& regions) {
    for (const Box& r : regions) {
      if (r.contains(need)) {
        return true;
      }
    }
    for (int k = need.lo(2); k <= need.hi(2); ++k) {
      for (int j = need.lo(1); j <= need.hi(1); ++j) {
        for (int i = need.lo(0); i <= need.hi(0); ++i) {
          const IntVect p{i, j, k};
          bool hit = false;
          for (const Box& r : regions) {
            if (r.contains(p)) {
              hit = true;
              break;
            }
          }
          if (!hit) {
            return false;
          }
        }
      }
    }
    return true;
  };

  for (const GraphTask& t : m.tasks) {
    if (t.rhsSourceSlot < 0) {
      continue;
    }
    const int src = t.rhsSourceSlot;
    // This task's reads of component c of the source slot's box `box`.
    const auto sourceReads = [&](std::size_t box, int c) {
      std::vector<Box> regions;
      for (const TaskAccess& r : t.reads) {
        if (r.slot == src && r.box == box && r.comp0 <= c &&
            c < r.comp0 + r.nComp) {
          regions.push_back(r.region);
        }
      }
      return regions;
    };
    // Allowed source hull per box, accumulated from this task's proven
    // needs — the K3 tightness bound.
    std::map<std::size_t, Box> allowed;

    for (const TaskAccess& w : t.writes) {
      for (int d = 0; d < 3; ++d) {
        const Box need =
            minkowski(w.region, proven.fused[static_cast<std::size_t>(d)]);
        auto [it, ins] = allowed.try_emplace(w.box, need);
        if (!ins) {
          it->second = hullUnion(it->second, need);
        }
        // Each written (advected) component and direction d's velocity
        // component must be read over the proven fused region.
        std::vector<int> comps;
        for (int c = w.comp0; c < w.comp0 + w.nComp; ++c) {
          comps.push_back(c);
        }
        if (velocityComp(d) < w.comp0 ||
            velocityComp(d) >= w.comp0 + w.nComp) {
          comps.push_back(velocityComp(d));
        }
        for (const int c : comps) {
          if (covered(need, sourceReads(w.box, c))) {
            continue;
          }
          KernelDiag diag;
          diag.kind = KernelDiagKind::ContractMismatch;
          diag.kernel = m.name;
          diag.stage = kernelStageTag(Stage::FusedCell, d);
          diag.role = t.label;
          diag.offset = proven.fused[static_cast<std::size_t>(d)].lo();
          diag.repro = need;
          diag.detail = "RHS task writes slot " + std::to_string(w.slot) +
                        " over " + fmtBox(w.region) + " but its reads of "
                        "slot " + std::to_string(src) + " c" +
                        std::to_string(c) + " do not cover the proven " +
                        kDirNames[d] + " fused footprint";
          out.push_back(std::move(diag));
        }
      }
    }

    // Tightness: every source read must stay inside the proven union hull
    // of the task's writes — beyond it the graph orders (and the cost
    // model prices) ghost cells no proven kernel touches.
    for (const TaskAccess& r : t.reads) {
      if (r.slot != src) {
        continue;
      }
      const auto it = allowed.find(r.box);
      if (it == allowed.end() || it->second.contains(r.region)) {
        continue;
      }
      KernelDiag diag;
      diag.kind = KernelDiagKind::Overdeclared;
      diag.kernel = m.name;
      diag.stage = kernelStageTag(Stage::FusedCell, -1);
      diag.role = t.label;
      diag.offset = IntVect::zero();
      diag.repro = r.region;
      diag.detail = "source read " + fmtBox(r.region) +
                    " extends beyond the proven footprint hull " +
                    fmtBox(it->second);
      out.push_back(std::move(diag));
    }
  }
  return out;
}

std::vector<CostNote> overdeclaredNotes(const KernelCheckReport& rep) {
  int unread = 0;
  for (const KernelDiag& d : rep.advisories) {
    if (d.kind == KernelDiagKind::Overdeclared &&
        d.role.rfind("read", 0) == 0) {
      ++unread;
    }
  }
  std::vector<CostNote> notes;
  if (unread > 0) {
    CostNote n;
    n.kind = CostNoteKind::OverdeclaredFootprint;
    n.where = rep.kernel;
    n.actualBytes = unread;
    n.limitBytes = rep.declaredOffsets;
    notes.push_back(n);
  }
  return notes;
}

// ---------------------------------------------------------------------------
// Built-in kernel shapes: scalar and pencil drivers of every pipeline stage
// in every direction, plus the reference pipelines. Each driver feeds the
// real kernels from kernels/exemplar.hpp / kernels/pencil.hpp — the probe
// executes exactly the arithmetic the executors run.

namespace {

namespace pk = kernels::pencil;

std::int64_t strideOf(const FArrayBox& f, int d) {
  return d == 0 ? 1 : (d == 1 ? f.strideY() : f.strideZ());
}

KernelShape stageShape(const char* impl, Stage stage, int dir, int inComps,
                       OutputDep dep, bool faceOutput, KernelFn fn) {
  KernelShape s;
  s.name = std::string(impl) + ":" + kernelStageTag(stage, dir);
  s.stage = stage;
  s.dir = dir;
  s.inComps = inComps;
  s.outComps = 1;
  s.outputDep = dep;
  s.faceOutput = faceOutput;
  s.fn = std::move(fn);
  return s;
}

} // namespace

std::vector<KernelShape> builtinStageShapes() {
  std::vector<KernelShape> shapes;

  for (int d = 0; d < 3; ++d) {
    // EvalFlux1: face average of a cell field (4-point collinear stencil).
    shapes.push_back(stageShape(
        "scalar", Stage::EvalFlux1, d, 1, OutputDep::Overwrite, true,
        [d](const FArrayBox& in, FArrayBox& out, const Box& faces, Real) {
          const std::int64_t s = strideOf(in, d);
          forEachCell(faces, [&](int i, int j, int k) {
            out.dataPtr(0)[out.offset(i, j, k)] = kernels::evalFlux1(
                in.dataPtr(0) + in.offset(i, j, k), s);
          });
        }));
    shapes.push_back(stageShape(
        "pencil", Stage::EvalFlux1, d, 1, OutputDep::Overwrite, true,
        [d](const FArrayBox& in, FArrayBox& out, const Box& faces, Real) {
          const std::int64_t s = strideOf(in, d);
          const int n = faces.size(0);
          for (int k = faces.lo(2); k <= faces.hi(2); ++k) {
            for (int j = faces.lo(1); j <= faces.hi(1); ++j) {
              pk::evalFlux1Pencil(in.dataPtr(0) + in.offset(faces.lo(0), j, k),
                                  s, n,
                                  out.dataPtr(0) +
                                      out.offset(faces.lo(0), j, k));
            }
          }
        }));

    // EvalFlux2: pointwise product of face average and face velocity.
    shapes.push_back(stageShape(
        "scalar", Stage::EvalFlux2, d, 2, OutputDep::Overwrite, true,
        [](const FArrayBox& in, FArrayBox& out, const Box& faces, Real) {
          forEachCell(faces, [&](int i, int j, int k) {
            const std::int64_t o = in.offset(i, j, k);
            out.dataPtr(0)[out.offset(i, j, k)] =
                kernels::evalFlux2(in.dataPtr(0)[o], in.dataPtr(1)[o]);
          });
        }));
    shapes.push_back(stageShape(
        "pencil", Stage::EvalFlux2, d, 2, OutputDep::Overwrite, true,
        [](const FArrayBox& in, FArrayBox& out, const Box& faces, Real) {
          const int n = faces.size(0);
          for (int k = faces.lo(2); k <= faces.hi(2); ++k) {
            for (int j = faces.lo(1); j <= faces.hi(1); ++j) {
              Real* outRow = out.dataPtr(0) + out.offset(faces.lo(0), j, k);
              const std::int64_t o = in.offset(faces.lo(0), j, k);
              pk::copyPencil(in.dataPtr(0) + o, n, outRow);
              pk::fluxPencil(outRow, in.dataPtr(1) + o, n);
            }
          }
        }));

    // FluxDifference: cell += scale * (hi-face flux - lo-face flux).
    shapes.push_back(stageShape(
        "scalar", Stage::FluxDifference, d, 1, OutputDep::Accumulate, false,
        [d](const FArrayBox& in, FArrayBox& out, const Box& cells,
            Real scale) {
          const std::int64_t s = strideOf(in, d);
          forEachCell(cells, [&](int i, int j, int k) {
            const Real* flux = in.dataPtr(0) + in.offset(i, j, k);
            out.dataPtr(0)[out.offset(i, j, k)] +=
                scale * (flux[s] - flux[0]);
          });
        }));
    shapes.push_back(stageShape(
        "pencil", Stage::FluxDifference, d, 1, OutputDep::Accumulate, false,
        [d](const FArrayBox& in, FArrayBox& out, const Box& cells,
            Real scale) {
          const std::int64_t s = strideOf(in, d);
          const int n = cells.size(0);
          for (int k = cells.lo(2); k <= cells.hi(2); ++k) {
            for (int j = cells.lo(1); j <= cells.hi(1); ++j) {
              pk::accumulatePencil(in.dataPtr(0) + in.offset(cells.lo(0), j, k),
                                   s, n, scale,
                                   out.dataPtr(0) +
                                       out.offset(cells.lo(0), j, k));
            }
          }
        }));

    // FusedCell: both faces recomputed from the solution field per cell
    // (input comp 0 = advected field, comp 1 = normal velocity).
    shapes.push_back(stageShape(
        "scalar", Stage::FusedCell, d, 2, OutputDep::Accumulate, false,
        [d](const FArrayBox& in, FArrayBox& out, const Box& cells,
            Real scale) {
          const std::int64_t s = strideOf(in, d);
          forEachCell(cells, [&](int i, int j, int k) {
            const std::int64_t o = in.offset(i, j, k);
            const Real lo =
                kernels::faceFlux(in.dataPtr(0) + o, in.dataPtr(1) + o, s);
            const Real hi = kernels::faceFlux(in.dataPtr(0) + o + s,
                                              in.dataPtr(1) + o + s, s);
            out.dataPtr(0)[out.offset(i, j, k)] += scale * (hi - lo);
          });
        }));
    shapes.push_back(stageShape(
        "pencil", Stage::FusedCell, d, 2, OutputDep::Accumulate, false,
        [d](const FArrayBox& in, FArrayBox& out, const Box& cells,
            Real scale) {
          const std::int64_t s = strideOf(in, d);
          const int n = cells.size(0);
          std::vector<Real> carry(static_cast<std::size_t>(n) + 1);
          std::vector<Real> hi(static_cast<std::size_t>(n) + 1);
          if (d == 0) {
            // Unit-stride direction: one face row covers both faces.
            for (int k = cells.lo(2); k <= cells.hi(2); ++k) {
              for (int j = cells.lo(1); j <= cells.hi(1); ++j) {
                const std::int64_t o = in.offset(cells.lo(0), j, k);
                pk::faceFluxPencil(in.dataPtr(0) + o, in.dataPtr(1) + o, s,
                                   n + 1, hi.data());
                pk::accumulatePencil(hi.data(), 1, n, scale,
                                     out.dataPtr(0) +
                                         out.offset(cells.lo(0), j, k));
              }
            }
            return;
          }
          // Strided directions: the fused executors' carry pattern — the
          // low-face row is computed once per sweep, then each row's
          // high faces roll into the next row's carry.
          const int outerDir = d == 1 ? 2 : 1;
          for (int w = cells.lo(outerDir); w <= cells.hi(outerDir); ++w) {
            IntVect p = cells.lo();
            p[outerDir] = w;
            const std::int64_t lo0 = in.offset(p[0], p[1], p[2]);
            pk::faceFluxPencil(in.dataPtr(0) + lo0, in.dataPtr(1) + lo0, s, n,
                               carry.data());
            for (int v = cells.lo(d); v <= cells.hi(d); ++v) {
              IntVect q = p;
              q[d] = v + 1; // high-face row = next cell row along d
              const std::int64_t oHi = in.offset(q[0], q[1], q[2]);
              pk::faceFluxPencil(in.dataPtr(0) + oHi, in.dataPtr(1) + oHi, s,
                                 n, hi.data());
              IntVect r = p;
              r[d] = v;
              pk::fusedFaceDiffPencil(hi.data(), carry.data(), n, scale,
                                      out.dataPtr(0) +
                                          out.offset(r[0], r[1], r[2]));
            }
          }
        }));
  }
  return shapes;
}

std::vector<KernelShape> builtinPipelineShapes() {
  std::vector<KernelShape> shapes;

  KernelShape ref;
  ref.name = "reference";
  ref.stage = Stage::FusedCell;
  ref.dir = -1;
  ref.inComps = kNumComp;
  ref.outComps = kNumComp;
  ref.outputDep = OutputDep::Accumulate;
  ref.fn = [](const FArrayBox& in, FArrayBox& out, const Box& valid,
              Real scale) {
    kernels::referenceFluxDiv(in, out, valid, scale);
  };
  shapes.push_back(std::move(ref));

  KernelShape naive;
  naive.name = "reference-naive";
  naive.stage = Stage::FusedCell;
  naive.dir = -1;
  naive.inComps = kNumComp;
  naive.outComps = kNumComp;
  naive.outputDep = OutputDep::Accumulate;
  naive.fn = [](const FArrayBox& in, FArrayBox& out, const Box& valid,
                Real scale) {
    kernels::referenceFluxDivNaive(in, out, valid, scale);
  };
  shapes.push_back(std::move(naive));

  return shapes;
}

std::vector<KernelShape> builtinShapes() {
  std::vector<KernelShape> shapes = builtinStageShapes();
  std::vector<KernelShape> pipes = builtinPipelineShapes();
  std::move(pipes.begin(), pipes.end(), std::back_inserter(shapes));
  return shapes;
}

} // namespace fluxdiv::analysis
