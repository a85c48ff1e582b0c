#include "core/detector.h"

namespace rangeamp::core {

std::string_view range_class_name(RangeClass c) noexcept {
  switch (c) {
    case RangeClass::kNone: return "none";
    case RangeClass::kTinyClosed: return "tiny_closed";
    case RangeClass::kSingleClosed: return "single_closed";
    case RangeClass::kOpen: return "open";
    case RangeClass::kSuffix: return "suffix";
    case RangeClass::kMulti: return "multi";
  }
  return "unknown";
}

RangeClass classify_range(const std::optional<http::RangeSet>& range) noexcept {
  if (!range || range->empty()) return RangeClass::kNone;
  if (range->count() > 1) return RangeClass::kMulti;
  const http::ByteRangeSpec& spec = range->front();
  if (spec.is_suffix()) return RangeClass::kSuffix;
  if (spec.is_open()) return RangeClass::kOpen;
  if (spec.is_closed()) {
    const std::uint64_t length = *spec.last() - *spec.first() + 1;
    return length <= kTinyRangeClassBytes ? RangeClass::kTinyClosed
                                          : RangeClass::kSingleClosed;
  }
  return RangeClass::kNone;
}

std::uint64_t selected_bytes_of(const std::optional<http::RangeSet>& range,
                                std::uint64_t resource_bytes) {
  if (!range) return UINT64_MAX;
  // Per run, allocating nothing; the product wraps mod 2^64 as the sum of
  // its count lengths would.
  std::uint64_t total = 0;
  for (const http::RangeRun& run : range->runs()) {
    if (const auto r = http::resolve(run.spec, resource_bytes)) {
      total += r->length() * run.count;
    }
  }
  return total;
}

DetectorSample make_detector_sample(std::uint64_t selected,
                                    std::uint64_t resource_bytes,
                                    const net::TrafficTotals& client_delta,
                                    const net::TrafficTotals& origin_delta,
                                    std::string client_key,
                                    std::string base_key, RangeClass shape) {
  DetectorSample sample;
  sample.selected_bytes = selected;
  sample.resource_bytes = resource_bytes;
  sample.client = client_delta;
  sample.origin = origin_delta;
  sample.cache_hit = origin_delta.response_bytes == 0;
  sample.client_key = std::move(client_key);
  sample.base_key = std::move(base_key);
  sample.shape = shape;
  return sample;
}

void RangeAmpDetector::observe(const DetectorSample& sample) {
  window_.push_back(sample);
  while (window_.size() > config_.window) window_.pop_front();
  if (!alarmed_) {
    if (evaluate()) {
      alarmed_ = true;
      clean_streak_ = 0;
    }
    return;
  }
  if (config_.decay_clean_windows == 0) return;  // legacy forever-latch
  if (evaluate()) {
    clean_streak_ = 0;
  } else if (++clean_streak_ >=
             config_.decay_clean_windows * config_.window) {
    alarmed_ = false;
    clean_streak_ = 0;
  }
}

RangeAmpDetector::Stats RangeAmpDetector::stats() const noexcept {
  Stats s;
  s.samples = window_.size();
  if (window_.empty()) return s;
  std::uint64_t origin = 0, client = 0;
  std::size_t tiny = 0, misses = 0;
  for (const auto& w : window_) {
    origin += w.origin.response_bytes;
    client += w.client.response_bytes;
    if (!w.cache_hit) ++misses;
    if (w.selected_bytes != UINT64_MAX && w.resource_bytes > 4096 &&
        static_cast<double>(w.selected_bytes) <
            config_.tiny_range_fraction * static_cast<double>(w.resource_bytes)) {
      ++tiny;
    }
  }
  s.asymmetry = client == 0 ? 0
                            : static_cast<double>(origin) / static_cast<double>(client);
  s.tiny_fraction = static_cast<double>(tiny) / static_cast<double>(window_.size());
  s.miss_fraction =
      static_cast<double>(misses) / static_cast<double>(window_.size());
  return s;
}

bool RangeAmpDetector::evaluate() const noexcept {
  if (window_.size() < config_.min_samples) return false;
  const Stats s = stats();
  return s.asymmetry >= config_.asymmetry_threshold &&
         s.tiny_fraction >= config_.tiny_fraction_threshold &&
         s.miss_fraction >= config_.miss_fraction_threshold;
}

void RangeAmpDetector::reset() {
  window_.clear();
  alarmed_ = false;
  clean_streak_ = 0;
}

}  // namespace rangeamp::core
