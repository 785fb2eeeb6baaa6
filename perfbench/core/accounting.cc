#include "core/accounting.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

size_t Ledger::Send() {
  std::lock_guard<std::mutex> lock(mu_);
  outcomes_.push_back(Outcome::kPending);
  ++counts_[static_cast<int>(Outcome::kPending)];
  return outcomes_.size() - 1;
}

void Ledger::Resolve(size_t id, Outcome outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= outcomes_.size()) {
    errors_.push_back("resolved unknown request " + std::to_string(id));
    return;
  }
  if (outcome == Outcome::kPending) {
    errors_.push_back("request " + std::to_string(id) + " resolved as pending");
    return;
  }
  if (outcomes_[id] != Outcome::kPending) {
    errors_.push_back("request " + std::to_string(id) + " resolved twice");
    return;
  }
  outcomes_[id] = outcome;
  --counts_[static_cast<int>(Outcome::kPending)];
  ++counts_[static_cast<int>(outcome)];
}

size_t Ledger::sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outcomes_.size();
}
size_t Ledger::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<int>(Outcome::kCompleted)];
}
size_t Ledger::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<int>(Outcome::kRejected)];
}
size_t Ledger::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_[static_cast<int>(Outcome::kFailed)];
}

std::string Ledger::Check(size_t engine_requests, size_t engine_rejected,
                          size_t failed_before_engine) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream diff;
  for (const std::string& e : errors_) diff << e << "; ";
  const size_t pending = counts_[static_cast<int>(Outcome::kPending)];
  const size_t completed = counts_[static_cast<int>(Outcome::kCompleted)];
  const size_t rejected = counts_[static_cast<int>(Outcome::kRejected)];
  const size_t failed = counts_[static_cast<int>(Outcome::kFailed)];
  if (pending != 0) diff << pending << " requests never resolved; ";
  if (completed + rejected + failed + pending != outcomes_.size()) {
    diff << "outcome counts do not sum to sent; ";
  }
  if (failed < failed_before_engine) {
    diff << "more requests failed before the engine (" << failed_before_engine
         << ") than failed in total (" << failed << "); ";
  }
  const size_t batched = completed + (failed - std::min(failed, failed_before_engine));
  if (engine_requests != batched) {
    diff << "engine batched " << engine_requests << " rows, client saw "
         << batched << " reach the engine; ";
  }
  if (engine_rejected != rejected) {
    diff << "engine rejected " << engine_rejected << ", client saw "
         << rejected << "; ";
  }
  return diff.str();
}

}  // namespace perfbench
