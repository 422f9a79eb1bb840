#include "core/variant.hpp"

namespace fluxdiv::core {

namespace {

const char* parSuffix(ParallelGranularity par) {
  switch (par) {
  case ParallelGranularity::OverBoxes:
    return "P>=Box";
  case ParallelGranularity::WithinBox:
    return "P<Box";
  case ParallelGranularity::HybridBoxTile:
    return "P=Box*Tile";
  }
  return "?";
}

const char* aspectSuffix(TileAspect aspect) {
  switch (aspect) {
  case TileAspect::Cube:
    return "";
  case TileAspect::Pencil:
    return "-pencil";
  case TileAspect::Slab:
    return "-slab";
  }
  return "";
}

const char* compTag(ComponentLoop comp) {
  return comp == ComponentLoop::Outside ? "CLO" : "CLI";
}

} // namespace

std::string VariantConfig::name() const {
  std::string n;
  switch (family) {
  case ScheduleFamily::SeriesOfLoops:
    n = std::string("Baseline-") + compTag(comp);
    break;
  case ScheduleFamily::ShiftFuse:
    n = std::string("Shift-Fuse-") + compTag(comp);
    if (par == ParallelGranularity::WithinBox) {
      n += "-WF"; // within-box shift-fuse runs as a cell wavefront
    }
    break;
  case ScheduleFamily::BlockedWavefront:
    n = std::string("Blocked WF-") + compTag(comp) + "-" +
        std::to_string(tileSize) + aspectSuffix(aspect);
    break;
  case ScheduleFamily::OverlappedTiles:
    n = (intra == IntraTileSchedule::Basic ? "Basic-Sched OT-"
                                           : "Shift-Fuse OT-") +
        std::to_string(tileSize) + aspectSuffix(aspect);
    if (order == TileOrder::Morton) {
      n += "-morton";
    }
    if (comp == ComponentLoop::Inside) {
      n += "-CLI";
    }
    break;
  }
  return n + ": " + parSuffix(par);
}

bool VariantConfig::validFor(int boxSize) const {
  const bool tiled = family == ScheduleFamily::BlockedWavefront ||
                     family == ScheduleFamily::OverlappedTiles;
  if (par == ParallelGranularity::HybridBoxTile &&
      family != ScheduleFamily::OverlappedTiles) {
    return false; // only independent tiles can be flattened across boxes
  }
  if (order != TileOrder::Lexicographic &&
      family != ScheduleFamily::OverlappedTiles) {
    return false; // traversal order only applies to independent tiles
  }
  if (!tiled) {
    return tileSize == 0 && aspect == TileAspect::Cube;
  }
  return tileSize > 0 && tileSize <= boxSize;
}

VariantConfig makeBaseline(ParallelGranularity par, ComponentLoop comp) {
  return {ScheduleFamily::SeriesOfLoops, IntraTileSchedule::Basic, par, comp,
          0};
}

VariantConfig makeShiftFuse(ParallelGranularity par, ComponentLoop comp) {
  return {ScheduleFamily::ShiftFuse, IntraTileSchedule::Basic, par, comp, 0};
}

VariantConfig makeBlockedWF(int tileSize, ParallelGranularity par,
                            ComponentLoop comp) {
  return {ScheduleFamily::BlockedWavefront, IntraTileSchedule::ShiftFuse,
          par, comp, tileSize};
}

VariantConfig makeOverlapped(IntraTileSchedule intra, int tileSize,
                             ParallelGranularity par, ComponentLoop comp) {
  return {ScheduleFamily::OverlappedTiles, intra, par, comp, tileSize};
}

std::vector<VariantConfig> enumerateVariants(int boxSize,
                                             bool includeExtensions) {
  std::vector<VariantConfig> out;
  const ParallelGranularity pars[] = {ParallelGranularity::OverBoxes,
                                      ParallelGranularity::WithinBox};
  const ComponentLoop comps[] = {ComponentLoop::Outside,
                                 ComponentLoop::Inside};
  for (auto par : pars) {
    for (auto comp : comps) {
      out.push_back(makeBaseline(par, comp));
      out.push_back(makeShiftFuse(par, comp));
    }
  }
  for (auto par : pars) {
    for (auto comp : comps) {
      for (int t : kTileSizes) {
        if (t < boxSize) { // paper: tiling only for strictly larger boxes
          out.push_back(makeBlockedWF(t, par, comp));
        }
      }
    }
  }
  for (auto par : pars) {
    for (auto intra :
         {IntraTileSchedule::Basic, IntraTileSchedule::ShiftFuse}) {
      for (int t : kTileSizes) {
        if (t < boxSize) {
          out.push_back(makeOverlapped(intra, t, par));
        }
      }
    }
  }
  if (includeExtensions) {
    for (int t : kTileSizes) {
      if (t >= boxSize) {
        continue;
      }
      // Hybrid granularity (level-wide (box, tile) pool).
      out.push_back(makeOverlapped(IntraTileSchedule::ShiftFuse, t,
                                   ParallelGranularity::HybridBoxTile));
      // Non-cubic tile aspects.
      for (auto aspect : {TileAspect::Pencil, TileAspect::Slab}) {
        VariantConfig cfg = makeOverlapped(
            IntraTileSchedule::ShiftFuse, t,
            ParallelGranularity::WithinBox);
        cfg.aspect = aspect;
        out.push_back(cfg);
      }
      // Morton traversal of independent tiles.
      VariantConfig morton = makeOverlapped(
          IntraTileSchedule::ShiftFuse, t, ParallelGranularity::OverBoxes);
      morton.order = TileOrder::Morton;
      out.push_back(morton);
    }
  }
  return out;
}

const char* levelPolicyName(LevelPolicy policy) {
  switch (policy) {
  case LevelPolicy::BoxSequential:
    return "sequential";
  case LevelPolicy::BoxParallel:
    return "parallel";
  }
  return "?";
}

bool parseLevelPolicy(const std::string& text, LevelPolicy& out) {
  for (const LevelPolicy policy : kLevelPolicies) {
    if (text == levelPolicyName(policy)) {
      out = policy;
      return true;
    }
  }
  // Accept the unambiguous long forms too (CI matrix readability).
  if (text == "box-sequential") {
    out = LevelPolicy::BoxSequential;
    return true;
  }
  if (text == "box-parallel") {
    out = LevelPolicy::BoxParallel;
    return true;
  }
  return false;
}

const char* stepFuseName(StepFuse fuse) {
  switch (fuse) {
  case StepFuse::Eager:
    return "eager";
  case StepFuse::Fused:
    return "fused";
  }
  return "?";
}

bool parseStepFuse(const std::string& text, StepFuse& out) {
  for (const StepFuse fuse : kStepFuseModes) {
    if (text == stepFuseName(fuse)) {
      out = fuse;
      return true;
    }
  }
  return false;
}

} // namespace fluxdiv::core
