#include "analysis/costmodel.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/lower.hpp"
#include "analysis/region.hpp"
#include "core/stepprogram.hpp"
#include "harness/machine.hpp"
#include "harness/table.hpp"

namespace fluxdiv::analysis {

namespace {

constexpr double kRealBytes = 8.0;

// ---------------------------------------------------------------------------
// Slot bookkeeping: one component slice of one field is one "slot". All set
// measures (working sets, traffic, recompute) reduce to unionPts() over the
// box lists collected per slot. Private temporaries are kept apart from
// shared fields — they live in per-worker scratch, a different address
// space.
// ---------------------------------------------------------------------------

struct SlotKey {
  FieldId field = FieldId::Phi0;
  StorageClass storage = StorageClass::Shared;
  int comp = 0;

  bool operator<(const SlotKey& o) const {
    return std::tie(field, storage, comp) <
           std::tie(o.field, o.storage, o.comp);
  }
};

using SlotBoxes = std::map<SlotKey, std::vector<Box>>;

void addAccess(SlotBoxes& slots, const Access& a, const IntVect& anchor) {
  if (a.box.empty()) {
    return;
  }
  const Box b =
      a.storage == StorageClass::Private ? a.box.shift(-anchor) : a.box;
  for (int c = a.comp0; c < a.comp0 + a.nComp; ++c) {
    slots[{a.field, a.storage, c}].push_back(b);
  }
}

double slotsBytes(const SlotBoxes& slots) {
  double total = 0;
  for (const auto& [key, boxes] : slots) {
    total += kRealBytes * static_cast<double>(unionPts(boxes));
  }
  return total;
}

/// A region's x-extent rounded up to the allocation pitch multiple: the
/// cache lines a row occupies include its pad lanes (rows are contiguous
/// with their slack), so *resident* footprints grow with the pitch even
/// though the pad lanes are never referenced.
Box padBoxX(const Box& b, int pad) {
  const std::int64_t nx = b.size(0);
  const std::int64_t rounded = (nx + pad - 1) / pad * pad;
  if (rounded == nx) {
    return b;
  }
  IntVect hi = b.hi();
  hi[0] = b.lo(0) + static_cast<int>(rounded) - 1;
  return {b.lo(), hi};
}

/// slotsBytes under an x-pitch of `pad` doubles (working-set pricing).
double slotsBytesPadded(const SlotBoxes& slots, int pad) {
  if (pad <= 1) {
    return slotsBytes(slots);
  }
  double total = 0;
  std::vector<Box> padded;
  for (const auto& [key, boxes] : slots) {
    padded.clear();
    padded.reserve(boxes.size());
    for (const Box& b : boxes) {
      if (!b.empty()) {
        padded.push_back(padBoxX(b, pad));
      }
    }
    total += kRealBytes * static_cast<double>(unionPts(padded));
  }
  return total;
}

// ---------------------------------------------------------------------------
// Scratch anchoring. A serial item that runs many tiles in sequence (the
// OverBoxes overlapped-tile lowering concatenates every tile's pipeline
// into one WorkItem) reuses one tile-sized scratch workspace, not one per
// tile. The lowering marks those stages with their tile's scratchGroup;
// translating each group's private boxes to a common origin makes
// successive tiles' scratch alias the same slots, which is exactly what
// the executor workspace does.
// ---------------------------------------------------------------------------

using AnchorMap = std::map<int, IntVect>;

AnchorMap scratchAnchors(const WorkItem& item) {
  AnchorMap anchors;
  for (const auto& stage : item.stages) {
    const int group = stage.scratchGroup;
    auto note = [&](const Access& a) {
      if (a.storage != StorageClass::Private || a.box.empty()) {
        return;
      }
      auto [it, inserted] = anchors.emplace(group, a.box.lo());
      if (!inserted) {
        it->second = IntVect::min(it->second, a.box.lo());
      }
    };
    for (const auto& a : stage.reads) {
      note(a);
    }
    for (const auto& a : stage.writes) {
      note(a);
    }
  }
  return anchors;
}

IntVect anchorOf(const AnchorMap& anchors, const StageExec& stage) {
  const auto it = anchors.find(stage.scratchGroup);
  return it == anchors.end() ? IntVect::zero() : it->second;
}

// ---------------------------------------------------------------------------
// (a) Working sets.
// ---------------------------------------------------------------------------

struct ItemFootprint {
  double totalBytes = 0;   ///< shared + anchored private, this item alone
  double privateBytes = 0; ///< anchored private scratch of this item
};

ItemFootprint itemFootprint(const WorkItem& item, SlotBoxes& phaseShared,
                            int pad) {
  const AnchorMap anchors = scratchAnchors(item);
  SlotBoxes all;
  SlotBoxes priv;
  for (const auto& stage : item.stages) {
    const IntVect anchor = anchorOf(anchors, stage);
    for (const auto& a : stage.reads) {
      addAccess(all, a, anchor);
      addAccess(a.storage == StorageClass::Private ? priv : phaseShared, a,
                anchor);
    }
    for (const auto& a : stage.writes) {
      addAccess(all, a, anchor);
      addAccess(a.storage == StorageClass::Private ? priv : phaseShared, a,
                anchor);
    }
  }
  return {slotsBytesPadded(all, pad), slotsBytesPadded(priv, pad)};
}

PhaseCost phaseCost(const Phase& phase, int nWorkers, int pad) {
  PhaseCost pc;
  pc.name = phase.name;
  pc.items = static_cast<int>(phase.items.size());
  SlotBoxes shared;
  double maxPrivate = 0;
  for (const auto& item : phase.items) {
    const ItemFootprint fp = itemFootprint(item, shared, pad);
    pc.maxItemBytes = std::max(pc.maxItemBytes, fp.totalBytes);
    maxPrivate = std::max(maxPrivate, fp.privateBytes);
  }
  const int scratchCopies =
      nWorkers > 0 ? std::min(pc.items, nWorkers) : pc.items;
  pc.workingSetBytes =
      slotsBytesPadded(shared, pad) + maxPrivate * scratchCopies;
  return pc;
}

// ---------------------------------------------------------------------------
// (b) Traffic: the cache-window streaming model. The execution-ordered
// stage stream is cut greedily into units of ~LLC capacity; within a unit
// every distinct byte is fetched once (short-range reuse is free), and a
// unit is credited for bytes it shares with the immediately preceding unit
// scaled by how plausibly that unit still fits in cache. Writes pay the
// write-allocate fill (they join the unit's distinct set) plus a
// writeback, unless the next unit dirties the same bytes again.
// docs/cost-model.md derives the equations and states the tolerance.
// ---------------------------------------------------------------------------

struct TrafficUnit {
  SlotBoxes all;
  SlotBoxes written;
  std::map<SlotKey, double> distinct;      ///< bytes, filled after cutting
  std::map<SlotKey, double> writtenBytes;  ///< bytes, filled after cutting
  double weight = 0;        ///< sum of member stages' distinct bytes
  double totalDistinct = 0; ///< sum over `distinct`
};

double stageBytes(const StageExec& stage, const IntVect& anchor) {
  SlotBoxes slots;
  for (const auto& a : stage.reads) {
    addAccess(slots, a, anchor);
  }
  for (const auto& a : stage.writes) {
    addAccess(slots, a, anchor);
  }
  return slotsBytes(slots);
}

std::vector<TrafficUnit> cutTrafficUnits(const ScheduleModel& m,
                                         double capacity) {
  std::vector<TrafficUnit> units;
  TrafficUnit cur;
  for (const auto& phase : m.phases) {
    for (const auto& item : phase.items) {
      const AnchorMap anchors = scratchAnchors(item);
      for (const auto& stage : item.stages) {
        const IntVect anchor = anchorOf(anchors, stage);
        const double bytes = stageBytes(stage, anchor);
        if (cur.weight > 0 && cur.weight + bytes > capacity) {
          units.push_back(std::move(cur));
          cur = {};
        }
        for (const auto& a : stage.reads) {
          addAccess(cur.all, a, anchor);
        }
        for (const auto& a : stage.writes) {
          addAccess(cur.all, a, anchor);
          addAccess(cur.written, a, anchor);
        }
        cur.weight += bytes;
      }
    }
  }
  if (cur.weight > 0) {
    units.push_back(std::move(cur));
  }
  for (auto& u : units) {
    for (const auto& [key, boxes] : u.all) {
      const double v = kRealBytes * static_cast<double>(unionPts(boxes));
      u.distinct[key] = v;
      u.totalDistinct += v;
    }
    for (const auto& [key, boxes] : u.written) {
      u.writtenBytes[key] =
          kRealBytes * static_cast<double>(unionPts(boxes));
    }
  }
  return units;
}

/// Bytes shared between two box lists of the same slot (by inclusion-
/// exclusion on unionPts over the concatenated list).
double overlapBytes(const std::vector<Box>& a, double aBytes,
                    const std::vector<Box>& b, double bBytes) {
  std::vector<Box> both;
  both.reserve(a.size() + b.size());
  both.insert(both.end(), a.begin(), a.end());
  both.insert(both.end(), b.begin(), b.end());
  const double unionBytes =
      kRealBytes * static_cast<double>(unionPts(both));
  return std::max(0.0, aBytes + bBytes - unionBytes);
}

double chargeFills(const TrafficUnit& u, const TrafficUnit* prev,
                   double capacity) {
  // Residency of the previous unit decays once its distinct set outgrows
  // the cache; scale its reuse credit accordingly.
  const double residency =
      prev == nullptr || prev->totalDistinct <= 0
          ? 0.0
          : std::min(1.0, capacity / prev->totalDistinct);
  double fills = 0;
  for (const auto& [key, bytes] : u.distinct) {
    double credit = 0;
    if (residency > 0) {
      const auto pit = prev->all.find(key);
      if (pit != prev->all.end()) {
        credit = residency * overlapBytes(u.all.at(key), bytes, pit->second,
                                          prev->distinct.at(key));
      }
    }
    fills += std::max(0.0, bytes - credit);
  }
  return fills;
}

double chargeWritebacks(const TrafficUnit& u, const TrafficUnit* next,
                        double capacity) {
  // Dirty bytes the *next* unit rewrites are never flushed — provided this
  // unit's footprint still fits, so the lines survive until overwritten.
  // The final unit's dirty bytes similarly stay resident at the end of the
  // evaluation (the model prices one evaluation, like the trace oracle).
  const double residency =
      u.totalDistinct <= 0 ? 0.0
                           : std::min(1.0, capacity / u.totalDistinct);
  double writebacks = 0;
  for (const auto& [key, bytes] : u.writtenBytes) {
    double credit = 0;
    if (next == nullptr) {
      credit = residency * bytes;
    } else {
      const auto nit = next->written.find(key);
      if (nit != next->written.end()) {
        credit =
            residency * overlapBytes(u.written.at(key), bytes, nit->second,
                                     next->writtenBytes.at(key));
      }
    }
    writebacks += std::max(0.0, bytes - credit);
  }
  return writebacks;
}

/// Distinct bytes the whole schedule touches (scratch anchored): the
/// fits-in-cache test. When this fits the LLC, one evaluation fetches
/// every distinct byte exactly once (write-allocate included) and evicts
/// nothing — traffic is the distinct volume itself, writeback-free.
double globalDistinctBytes(const ScheduleModel& m) {
  SlotBoxes all;
  for (const auto& phase : m.phases) {
    for (const auto& item : phase.items) {
      const AnchorMap anchors = scratchAnchors(item);
      for (const auto& stage : item.stages) {
        const IntVect anchor = anchorOf(anchors, stage);
        for (const auto& a : stage.reads) {
          addAccess(all, a, anchor);
        }
        for (const auto& a : stage.writes) {
          addAccess(all, a, anchor);
        }
      }
    }
  }
  return slotsBytes(all);
}

double predictTraffic(const ScheduleModel& m, const CacheSpec& spec) {
  const double capacity =
      static_cast<double>(std::max<std::size_t>(spec.llcBytes, 1));
  const double distinct = globalDistinctBytes(m);
  if (distinct <= capacity) {
    return distinct;
  }
  const std::vector<TrafficUnit> units = cutTrafficUnits(m, capacity);
  double traffic = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    const TrafficUnit* prev = i > 0 ? &units[i - 1] : nullptr;
    const TrafficUnit* next = i + 1 < units.size() ? &units[i + 1] : nullptr;
    traffic += chargeFills(units[i], prev, capacity);
    traffic += chargeWritebacks(units[i], next, capacity);
  }
  return traffic;
}

/// Cold-cache floor: phi0 in once, phi1 filled and written back once.
double compulsoryTraffic(const ScheduleModel& m) {
  SlotBoxes phi0Reads;
  SlotBoxes phi1Writes;
  for (const auto& phase : m.phases) {
    for (const auto& item : phase.items) {
      for (const auto& stage : item.stages) {
        for (const auto& a : stage.reads) {
          if (a.field == FieldId::Phi0) {
            addAccess(phi0Reads, a, IntVect::zero());
          }
        }
        for (const auto& a : stage.writes) {
          if (a.field == FieldId::Phi1) {
            addAccess(phi1Writes, a, IntVect::zero());
          }
        }
      }
    }
  }
  return slotsBytes(phi0Reads) + 2 * slotsBytes(phi1Writes);
}

// ---------------------------------------------------------------------------
// (c) Recomputation volume: temporary values (flux / velocity faces)
// produced by more than one work unit. Work units are items, refined by
// the stages' scratch groups so the serial overlapped-tile lowering (one
// item running every tile) still exposes its per-tile structure.
// Duplicates within one unit (EvalFlux1 then EvalFlux2 refining the same
// faces) are pipeline staging, not recomputation, and union out.
// ---------------------------------------------------------------------------

bool isRecomputeField(FieldId f) {
  return f == FieldId::Flux || f == FieldId::Velocity;
}

struct RecomputeTally {
  double produced = 0; ///< sum over units of distinct values produced
  double duplicated = 0; ///< produced minus the global distinct count
};

void tallyPhaseRecompute(const Phase& phase, RecomputeTally& tally) {
  // Producer unit -> slot -> boxes, in original (un-anchored) coordinates:
  // recompute is about *where* work repeats, not where scratch lives.
  // A unit is (item, scratch group).
  std::map<std::pair<std::size_t, int>, SlotBoxes> units;
  for (std::size_t i = 0; i < phase.items.size(); ++i) {
    for (const auto& stage : phase.items[i].stages) {
      for (const auto& a : stage.writes) {
        if (!isRecomputeField(a.field)) {
          continue;
        }
        addAccess(units[{i, stage.scratchGroup}], a, IntVect::zero());
      }
    }
  }
  std::map<SlotKey, std::pair<double, std::vector<Box>>> perSlot;
  for (const auto& [unit, slots] : units) {
    for (const auto& [key, boxes] : slots) {
      auto& [perUnitSum, combined] = perSlot[key];
      perUnitSum += static_cast<double>(unionPts(boxes));
      combined.insert(combined.end(), boxes.begin(), boxes.end());
    }
  }
  for (const auto& [key, entry] : perSlot) {
    const auto& [perUnitSum, combined] = entry;
    tally.produced += perUnitSum;
    tally.duplicated +=
        perUnitSum - static_cast<double>(unionPts(combined));
  }
}

// ---------------------------------------------------------------------------
// (d) Parallelism.
// ---------------------------------------------------------------------------

std::int64_t coneFrontCount(const ConeCheck& cone) {
  if (cone.lattice.empty()) {
    return 0;
  }
  const IntVect extent = cone.lattice.hi() - cone.lattice.lo();
  std::int64_t last = 0;
  for (int d = 0; d < grid::SpaceDim; ++d) {
    last += static_cast<std::int64_t>(cone.skew[d]) * extent[d];
  }
  return last + 1;
}

int coneMaxFrontSize(const ConeCheck& cone) {
  const std::int64_t fronts = coneFrontCount(cone);
  if (fronts <= 0) {
    return 0;
  }
  std::vector<std::int64_t> counts(static_cast<std::size_t>(fronts), 0);
  const IntVect lo = cone.lattice.lo();
  grid::forEachCell(cone.lattice, [&](int i, int j, int k) {
    const std::int64_t w = cone.skew[0] * (i - lo[0]) +
                           cone.skew[1] * (j - lo[1]) +
                           cone.skew[2] * (k - lo[2]);
    if (w >= 0 && w < fronts) {
      ++counts[static_cast<std::size_t>(w)];
    }
  });
  return static_cast<int>(*std::max_element(counts.begin(), counts.end()));
}

// ---------------------------------------------------------------------------
// Notes.
// ---------------------------------------------------------------------------

constexpr double kHighRecomputeThreshold = 0.25;

void addNotes(CostReport& r, const CacheSpec& spec) {
  const PhaseCost* worstPhase = nullptr;
  const PhaseCost* worstParallel = nullptr;
  for (const auto& pc : r.phases) {
    if (worstPhase == nullptr ||
        pc.workingSetBytes > worstPhase->workingSetBytes) {
      worstPhase = &pc;
    }
    if (pc.items > 1 && (worstParallel == nullptr ||
                         pc.maxItemBytes > worstParallel->maxItemBytes)) {
      worstParallel = &pc;
    }
  }
  if (worstPhase != nullptr &&
      worstPhase->workingSetBytes >
          static_cast<double>(spec.llcBytes)) {
    r.capacityBound = true;
    r.notes.push_back({CostNoteKind::CapacityBound, worstPhase->name,
                       worstPhase->workingSetBytes,
                       static_cast<double>(spec.llcBytes), 0});
  }
  if (worstParallel != nullptr &&
      worstParallel->maxItemBytes > static_cast<double>(spec.l2Bytes)) {
    r.notes.push_back({CostNoteKind::ItemExceedsL2, worstParallel->name,
                       worstParallel->maxItemBytes,
                       static_cast<double>(spec.l2Bytes), 0});
  }
  if (r.recomputeFraction > kHighRecomputeThreshold) {
    r.notes.push_back({CostNoteKind::HighRecompute, "overlapped tiles", 0,
                       0, r.recomputeFraction});
  }
}

std::string formatBytesD(double bytes) {
  return harness::formatBytes(
      static_cast<std::size_t>(std::max(0.0, bytes)));
}

} // namespace

const char* costNoteKindName(CostNoteKind k) {
  switch (k) {
  case CostNoteKind::CapacityBound:
    return "capacity-bound";
  case CostNoteKind::ItemExceedsL2:
    return "item-exceeds-l2";
  case CostNoteKind::HighRecompute:
    return "high-recompute";
  case CostNoteKind::OverSynchronized:
    return "over-synchronized";
  case CostNoteKind::OverdeclaredFootprint:
    return "overdeclared-footprint";
  case CostNoteKind::DeadStore:
    return "dead-store";
  case CostNoteKind::ModelError:
    return "model-error";
  }
  return "?";
}

std::string CostNote::message() const {
  std::ostringstream os;
  os << costNoteKindName(kind) << ": ";
  switch (kind) {
  case CostNoteKind::CapacityBound:
    os << "phase '" << where << "' working set " << formatBytesD(actualBytes)
       << " > LLC " << formatBytesD(limitBytes) << " -> DRAM-streaming";
    break;
  case CostNoteKind::ItemExceedsL2:
    os << "phase '" << where << "' per-item footprint "
       << formatBytesD(actualBytes) << " > L2 " << formatBytesD(limitBytes)
       << " -> tiles stream from shared cache";
    break;
  case CostNoteKind::HighRecompute:
    os << harness::formatDouble(100 * fraction, 1)
       << "% of temporary values produced more than once (" << where << ")";
    break;
  case CostNoteKind::OverSynchronized:
    os << "graph '" << where << "': "
       << static_cast<std::int64_t>(actualBytes) << " of "
       << static_cast<std::int64_t>(limitBytes)
       << " dependency edges removable without losing race-freedom "
          "-> schedule over-synchronized";
    break;
  case CostNoteKind::OverdeclaredFootprint:
    os << "'" << where << "': "
       << static_cast<std::int64_t>(actualBytes) << " of "
       << static_cast<std::int64_t>(limitBytes)
       << " declared stencil offset(s) never read by the kernel -> cost "
          "model prices ghost cells no kernel touches";
    break;
  case CostNoteKind::DeadStore:
    os << "'" << where
       << "': written values are never read by a later op -> the step "
          "program carries dead work";
    break;
  case CostNoteKind::ModelError:
    os << where;
    break;
  }
  return os.str();
}

CacheSpec CacheSpec::fromMachine(const harness::MachineInfo& info) {
  harness::MachineInfo m = info;
  harness::applyCacheFallback(m);
  CacheSpec spec;
  spec.llcBytes = harness::lastLevelCacheBytes(m);
  std::size_t l2 = 0;
  std::size_t line = 0;
  for (const auto& c : m.caches) {
    if (c.level == 2) {
      l2 = std::max(l2, c.sizeBytes);
    }
    if (line == 0) {
      line = c.lineBytes;
    }
  }
  spec.l2Bytes = l2 != 0 ? l2 : std::min<std::size_t>(spec.llcBytes,
                                                      256 * 1024);
  spec.lineBytes = line != 0 ? line : 64;
  return spec;
}

CostReport analyzeCost(const ScheduleModel& m, const CacheSpec& spec,
                       int nWorkers) {
  CostReport r;
  r.variant = m.variant;
  r.validCells = m.valid.numPts();

  const int pad = std::max(1, spec.xPadDoubles);
  std::int64_t totalItems = 0;
  for (const auto& phase : m.phases) {
    PhaseCost pc = phaseCost(phase, nWorkers, pad);
    r.workingSetBytes = std::max(r.workingSetBytes, pc.workingSetBytes);
    r.maxItemBytes = std::max(r.maxItemBytes, pc.maxItemBytes);
    r.maxConcurrency = std::max(r.maxConcurrency, pc.items);
    totalItems += pc.items;
    r.phases.push_back(std::move(pc));
  }
  r.barrierCount = static_cast<std::int64_t>(m.phases.size());
  r.avgConcurrency =
      r.barrierCount > 0
          ? static_cast<double>(totalItems) /
                static_cast<double>(r.barrierCount)
          : 1.0;
  for (const auto& cone : m.cones) {
    r.frontCount += coneFrontCount(cone);
    r.maxConcurrency = std::max(r.maxConcurrency, coneMaxFrontSize(cone));
  }

  r.trafficBytes = predictTraffic(m, spec);
  r.compulsoryBytes = compulsoryTraffic(m);
  r.bytesPerCell =
      r.validCells > 0
          ? r.trafficBytes / static_cast<double>(r.validCells)
          : 0.0;

  RecomputeTally tally;
  for (const auto& phase : m.phases) {
    tallyPhaseRecompute(phase, tally);
  }
  r.recomputeCells = tally.duplicated;
  r.recomputeFraction =
      tally.produced > 0 ? tally.duplicated / tally.produced : 0.0;

  addNotes(r, spec);
  return r;
}

CostReport analyzeCost(const core::VariantConfig& cfg, int boxSize,
                       int nThreads, const CacheSpec& spec) {
  return analyzeCost(lowerVariant(cfg, grid::Box::cube(boxSize), nThreads),
                     spec, nThreads);
}

namespace {

/// Average parallelism after quantizing `conc` independent units onto
/// `nThreads` workers: conc / ceil(conc / nThreads). Equals nThreads when
/// the units divide evenly, dips when the last round runs short-handed.
double usableParallelism(double conc, int nThreads) {
  if (conc <= 1.0) {
    return 1.0;
  }
  const double rounds = std::ceil(conc / nThreads);
  return conc / rounds;
}

} // namespace

std::vector<LevelPolicyCost> analyzeLevelPolicies(
    const core::VariantConfig& cfg, int boxSize, int nBoxes, int nThreads,
    const CacheSpec& spec) {
  return analyzeLevelPolicies(analyzeCost(cfg, boxSize, nThreads, spec),
                              boxSize, nBoxes, nThreads);
}

std::vector<LevelPolicyCost> analyzeLevelPolicies(const CostReport& box,
                                                  int boxSize, int nBoxes,
                                                  int nThreads) {
  // The parallel policy runs one task per logical tile of each box, the
  // tiles the step-graph lowering cuts (core::logicalTiles).
  const auto tiles = static_cast<std::int64_t>(
      core::logicalTiles(grid::Box::cube(boxSize)).size());

  std::vector<LevelPolicyCost> out;
  for (const core::LevelPolicy policy : core::kLevelPolicies) {
    LevelPolicyCost c;
    c.policy = policy;
    c.nBoxes = nBoxes;
    switch (policy) {
    case core::LevelPolicy::BoxSequential:
      // Boxes in sequence; concurrency is whatever the within-box schedule
      // exposes, and every within-box barrier repeats per box.
      c.taskCount = nBoxes;
      c.depth = nBoxes;
      c.maxConcurrency = box.maxConcurrency;
      c.avgConcurrency = box.avgConcurrency;
      c.barrierCount = nBoxes * box.barrierCount;
      break;
    case core::LevelPolicy::BoxParallel:
      c.taskCount = nBoxes * tiles;
      c.depth = 1;
      c.maxConcurrency = nBoxes * tiles;
      c.avgConcurrency = static_cast<double>(nBoxes * tiles);
      c.barrierCount = 1; // the single join when the graph drains
      break;
    }
    out.push_back(c);
  }
  // Speedup estimate: usable parallelism relative to the sequential
  // policy's, both quantized onto nThreads workers. Deliberately ignores
  // task overhead and memory bandwidth — it ranks policies, it does not
  // predict wall clock (docs/cost-model.md).
  const double seqUsable =
      usableParallelism(out.front().avgConcurrency, nThreads);
  for (LevelPolicyCost& c : out) {
    c.predictedSpeedup =
        usableParallelism(c.avgConcurrency, nThreads) / seqUsable;
  }
  return out;
}

} // namespace fluxdiv::analysis
