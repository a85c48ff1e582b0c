#include "sim/ps.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rangeamp::sim {

PsEngine::PsEngine(double capacity_bytes_per_sec)
    : capacity_(capacity_bytes_per_sec) {
  if (!std::isfinite(capacity_) || capacity_ <= 0) {
    throw std::invalid_argument("PsEngine: capacity must be finite and > 0");
  }
}

std::uint64_t PsEngine::start_flow(std::uint64_t bytes) {
  const std::uint64_t id = next_id_++;
  heap_.push_back({virtual_ + static_cast<double>(bytes), id, now_});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  return id;
}

void PsEngine::cancel_flow(std::uint64_t id) {
  cancelled_.insert(id);
  --live_;
  drop_cancelled_top();
}

void PsEngine::advance_to(double t) {
  if (live_ > 0) {
    busy_ += t - now_;
    // Landing on the next completion snaps V to its tag exactly, so the
    // closed-form time and the tag can never disagree by rounding.
    virtual_ = t >= next_completion()
                   ? std::max(virtual_, heap_.front().tag)
                   : virtual_ + (t - now_) * capacity_ / static_cast<double>(live_);
  }
  now_ = t;
}

bool PsEngine::pop_completed(PsFlow& out) {
  if (live_ == 0 || heap_.front().tag - virtual_ > kDustBytes) return false;
  out = heap_.front();
  pop_top();
  --live_;
  drop_cancelled_top();
  return true;
}

void PsEngine::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void PsEngine::drop_cancelled_top() {
  while (!heap_.empty() && !cancelled_.empty() &&
         cancelled_.erase(heap_.front().id) != 0) {
    pop_top();
  }
  if (live_ == 0) virtual_ = 0;  // idle: no tag left to measure against
}

}  // namespace rangeamp::sim
