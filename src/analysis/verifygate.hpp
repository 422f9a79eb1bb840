#pragma once
// Shared runtime for the first-use verification gates
// (docs/static-analysis.md, "The verification stack"). Every
// executor-side gate — schedule, kernel, graph, comm, step — is compiled
// in by FLUXDIV_VERIFY (always in Debug) and proves each distinct shape
// exactly once per gate instance. VerifyGate is that once-per-shape memo;
// the checkers themselves stay in their own translation units.

#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

namespace fluxdiv::analysis {

class VerifyGate {
public:
  /// True exactly once per distinct shape key — the caller runs its
  /// checker on `true`. The key is inserted *before* the caller's checker
  /// runs, so a checker that re-enters its own gate (the kernel probe
  /// does) terminates; the insertion is mutex-protected, so a
  /// process-wide static gate is safe under concurrent executors.
  bool shouldVerify(const std::string& shapeKey);

  /// Number of distinct shapes verified so far (tests).
  [[nodiscard]] std::size_t verifiedShapes() const;

private:
  mutable std::mutex mutex_;
  std::unordered_set<std::string> seen_;
};

/// The uniform gate-failure text every verifier throws:
///   "<header> (N diagnostic(s)):" + the first four messages +
///   "  (+K more)" when truncated.
std::string verifyFailureMessage(std::string header,
                                 const std::vector<std::string>& diags);

} // namespace fluxdiv::analysis
