#include "analysis/verifygate.hpp"

#include <algorithm>
#include <utility>

namespace fluxdiv::analysis {

void VerifyGate::verifyOnce(const std::string& shapeKey,
                            const std::function<void()>& check) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto [it, first] = verdicts_.try_emplace(shapeKey);
    // Map nodes are stable, so the reference survives other keys' inserts.
    Verdict& v = it->second;
    if (first) {
      v.checker = std::this_thread::get_id();
    } else {
      if (!v.decided && v.checker == std::this_thread::get_id()) {
        return; // the check re-entering its own gate
      }
      decided_.wait(lock, [&v] { return v.decided; });
      if (v.failure) {
        std::rethrow_exception(v.failure);
      }
      return;
    }
  }
  try {
    check();
  } catch (...) {
    decide(shapeKey, std::current_exception());
    throw;
  }
  decide(shapeKey, nullptr);
}

void VerifyGate::decide(const std::string& shapeKey,
                        std::exception_ptr failure) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Verdict& v = verdicts_[shapeKey];
    v.decided = true;
    v.failure = std::move(failure);
  }
  decided_.notify_all();
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
