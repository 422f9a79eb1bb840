#pragma once
// Shared runtime for the first-use verification gates
// (docs/static-analysis.md, "The verification stack"). Every
// executor-side gate — kernel, graph, comm, step — is compiled in by
// FLUXDIV_VERIFY (always in Debug). VerifyGate proves each distinct shape
// once per gate instance and remembers the verdict; the checkers
// themselves stay in their own translation units.

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace fluxdiv::analysis {

class VerifyGate {
public:
  /// Run `check`, which throws on a failed proof, the first time
  /// `shapeKey` is met. A failure is remembered and rethrown on every
  /// later use of the key, so a shape that failed once never runs
  /// unchecked. A use from another thread while the first check is still
  /// running waits for its verdict (and rethrows its failure). The key is
  /// recorded with its checking thread *before* `check` runs, so a check
  /// that re-enters its own gate on that thread (the kernel probe does)
  /// passes through instead of recursing or waiting for itself. The
  /// record is mutex-protected and `check` runs unlocked, so a
  /// process-wide static gate is safe under concurrent executors.
  void verifyOnce(const std::string& shapeKey,
                  const std::function<void()>& check);

  /// Number of distinct shapes met so far (tests).
  [[nodiscard]] std::size_t verifiedShapes() const;

private:
  struct Verdict {
    std::thread::id checker; ///< the thread running the first check
    bool decided = false;
    std::exception_ptr failure; ///< set iff the check failed
  };

  /// Record the outcome of `shapeKey`'s check and wake its waiters.
  void decide(const std::string& shapeKey, std::exception_ptr failure);

  mutable std::mutex mutex_;
  std::condition_variable decided_;
  /// Every shape met so far, with its verdict once the check finished.
  std::unordered_map<std::string, Verdict> verdicts_;
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
