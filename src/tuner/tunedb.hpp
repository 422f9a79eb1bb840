#pragma once
// Persistent tuning database for the throughput service (docs/serving.md,
// "TuneDB"). Records the best-known (fuse mode, level policy) per
// (machine, scheme, box size, ghost depth, threads) so repeat traffic is
// admitted without re-tuning: a cold key is answered by a cost-model
// prior (analysis::analyzeStepFusion + analyzeLevelPolicies rank the
// candidates before anything is timed), a warm key by the measured record
// from a previous service run. Storage is a single self-describing JSON
// file; records carry the machine signature they were measured on, and a
// file written on a different machine contributes nothing but its
// existence — every lookup then falls back to the prior, which is exactly
// the cold-start behavior (measurements do not transfer across hosts; the
// model does).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/variant.hpp"

namespace fluxdiv::tuner {

/// Identity of the host a measurement is valid on. Coarse on purpose:
/// model string, core count, and LLC capacity are what the cost model
/// prices against, so entries transfer between nodes exactly when the
/// model would predict the same ranking anyway.
struct MachineSignature {
  std::string cpuModel;
  int logicalCores = 0;
  std::size_t llcBytes = 0;

  /// Probe the current host (harness::queryMachine()).
  static MachineSignature host();

  [[nodiscard]] bool operator==(const MachineSignature& o) const;
  [[nodiscard]] bool operator!=(const MachineSignature& o) const {
    return !(*this == o);
  }

  /// "model | N cores | M MiB LLC" for reports.
  [[nodiscard]] std::string str() const;
};

/// What the service knows about an instance at admission time — the DB
/// key (the machine signature is per-DB, not per-key).
struct TuneKey {
  std::string scheme; ///< solvers::schemeName (e.g. "rk4")
  int boxSize = 0;    ///< cubic box side
  int ghost = 0;      ///< ghost depth of the solution
  int threads = 0;    ///< pool workers the solve runs on

  [[nodiscard]] bool operator==(const TuneKey& o) const;
  [[nodiscard]] std::string str() const;
};

/// One tuned (or prior-ranked) schedule choice.
struct TuneEntry {
  TuneKey key;
  core::StepFuse fuse = core::StepFuse::Fused;
  core::LevelPolicy policy = core::LevelPolicy::BoxParallel;
  double seconds = 0.0;        ///< best measured per-step wall time;
                               ///< 0 while the entry is only a prior
  double priorCostBytes = 0.0; ///< cost-model price that seeded it
  bool measured = false;       ///< refined from a real service run?
  int refines = 0;             ///< measurements folded into the entry
};

/// Observable traffic counters, for service stats and the zero-re-tune
/// acceptance test.
struct TuneDBCounters {
  std::uint64_t hits = 0;    ///< suggest() answered by a measured entry
  std::uint64_t misses = 0;  ///< suggest() answered by a cost-model prior
  std::uint64_t seeds = 0;   ///< prior entries synthesized
  std::uint64_t refines = 0; ///< observe() calls folded in
  std::uint64_t rejected = 0; ///< records dropped at load() (foreign
                              ///< machine signature or unparsable)
};

/// Cost-model prior for a cold key: the rank-1 fuse mode of
/// analysis::analyzeStepFusion and the fastest-predicted level policy of
/// analysis::analyzeLevelPolicies, priced for `machine`. `nBoxes` is the
/// admission-time hint for the level size (the key deliberately omits it:
/// measurements are keyed by what dominates reuse — box size — while the
/// prior may still use the hint to price exchange volume). Throws
/// std::invalid_argument on an unknown scheme name.
TuneEntry costModelPrior(const TuneKey& key, int nBoxes,
                         const MachineSignature& machine);

/// The persistent database. Not thread-safe: the service consults it from
/// its single orchestrator thread.
class TuneDB {
public:
  /// `machine` defaults to the probed host; tests inject fake signatures
  /// to exercise the mismatch fallback.
  explicit TuneDB(MachineSignature machine = MachineSignature::host());

  /// Merge records from `path`. Returns false when the file is missing or
  /// unreadable (a cold cache, not an error). Records whose machine
  /// signature differs from this DB's are dropped and counted in
  /// counters().rejected — lookups for those keys fall back to the
  /// cost-model prior.
  bool load(const std::string& path);

  /// Write every measured record (priors are recomputable and are not
  /// persisted). Atomic: the records go to `path + ".tmp"`, which is then
  /// renamed over `path`. Throws std::runtime_error when the file cannot
  /// be written; `path` is then left as it was.
  void save(const std::string& path) const;

  /// The measured record for `key`, or nullptr. Does not touch counters.
  [[nodiscard]] const TuneEntry* find(const TuneKey& key) const;

  /// Admission query: the measured record when one exists (a hit —
  /// repeat traffic never re-tunes), else a memoized cost-model prior (a
  /// miss — the service is expected to measure the solve it admits and
  /// observe() the result).
  const TuneEntry& suggest(const TuneKey& key, int nBoxes = 8);

  /// Fold one measured solve into the DB: a first measurement upgrades
  /// the prior in place; a repeat measurement keeps the faster of the
  /// (fuse, policy) choices and the best seconds seen for the kept
  /// choice.
  void observe(const TuneKey& key, core::StepFuse fuse,
               core::LevelPolicy policy, double seconds);

  [[nodiscard]] const MachineSignature& machine() const {
    return machine_;
  }
  [[nodiscard]] const TuneDBCounters& counters() const {
    return counters_;
  }
  /// Measured records (priors excluded).
  [[nodiscard]] std::size_t size() const;

private:
  TuneEntry* findMutable(const TuneKey& key, bool measuredOnly);

  MachineSignature machine_;
  std::vector<TuneEntry> entries_; ///< measured records and memoized
                                   ///< priors, discriminated by .measured
  TuneDBCounters counters_;
};

} // namespace fluxdiv::tuner
