#pragma once
// Shared runtime for the first-use verification gates
// (docs/static-analysis.md, "The verification stack"). Every
// executor-side gate — kernel, graph, comm, step — is compiled in by
// FLUXDIV_VERIFY (always in Debug). VerifyGate proves each distinct shape
// once per gate instance and remembers the verdict; the checkers
// themselves stay in their own translation units.

#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace fluxdiv::analysis {

class VerifyGate {
public:
  /// Run `check`, which throws on a failed proof, the first time
  /// `shapeKey` is met. A failure is remembered and rethrown on every
  /// later use of the key, so a shape that failed once never runs
  /// unchecked. The key is recorded *before* `check` runs, so a check
  /// that re-enters its own gate (the kernel probe does) passes through
  /// instead of recursing — as does a use from another thread while the
  /// check is still running. The record is mutex-protected and `check`
  /// runs unlocked, so a process-wide static gate is safe under
  /// concurrent executors.
  void verifyOnce(const std::string& shapeKey,
                  const std::function<void()>& check);

  /// Number of distinct shapes met so far (tests).
  [[nodiscard]] std::size_t verifiedShapes() const;

private:
  mutable std::mutex mutex_;
  /// Every shape met so far; a failed one maps to its failure.
  std::unordered_map<std::string, std::exception_ptr> verdicts_;
};

/// The uniform gate-failure text every gate throws:
///   "<header> (N diagnostic(s)):" + the first four messages +
///   "  (+K more)" when truncated.
std::string verifyFailureMessage(std::string header,
                                 const std::vector<std::string>& diags);

/// Throw std::logic_error with verifyFailureMessage(header, the
/// diagnostics' message()s) when `diagnostics` is not empty.
template <class Diagnostics>
void throwOnDiagnostics(std::string header, const Diagnostics& diagnostics) {
  if (diagnostics.empty()) {
    return;
  }
  std::vector<std::string> msgs;
  msgs.reserve(diagnostics.size());
  for (const auto& d : diagnostics) {
    msgs.push_back(d.message());
  }
  throw std::logic_error(verifyFailureMessage(std::move(header), msgs));
}

} // namespace fluxdiv::analysis
