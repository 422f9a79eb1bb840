#include "analysis/verifygate.hpp"

#include <algorithm>

namespace fluxdiv::analysis {

void VerifyGate::verifyOnce(const std::string& shapeKey,
                            const std::function<void()>& check) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, first] = verdicts_.try_emplace(shapeKey);
    if (!first) {
      if (it->second) {
        std::rethrow_exception(it->second);
      }
      return;
    }
  }
  try {
    check();
  } catch (...) {
    const std::lock_guard<std::mutex> lock(mutex_);
    verdicts_[shapeKey] = std::current_exception();
    throw;
  }
}

std::size_t VerifyGate::verifiedShapes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return verdicts_.size();
}

std::string verifyFailureMessage(std::string header,
                                 const std::vector<std::string>& diags) {
  std::string msg = std::move(header);
  msg += " (" + std::to_string(diags.size()) + " diagnostic(s)):";
  const std::size_t shown = std::min<std::size_t>(diags.size(), 4);
  for (std::size_t i = 0; i < shown; ++i) {
    msg += "\n  " + diags[i];
  }
  if (diags.size() > shown) {
    msg += "\n  (+" + std::to_string(diags.size() - shown) + " more)";
  }
  return msg;
}

} // namespace fluxdiv::analysis
