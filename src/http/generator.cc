#include "http/generator.h"

#include <algorithm>

namespace rangeamp::http {
namespace {

ByteRangeSpec random_closed(Rng& rng, std::uint64_t resource_size) {
  const std::uint64_t first = rng.below(resource_size);
  const std::uint64_t last = rng.between(first, resource_size - 1);
  return ByteRangeSpec::closed(first, last);
}

}  // namespace

GeneratedRange generate_range(Rng& rng, RangeShape shape,
                              std::uint64_t resource_size) {
  // The generator targets a valid (non-empty) resource.
  const std::uint64_t size = std::max<std::uint64_t>(resource_size, 1);
  RangeSet set;
  switch (shape) {
    case RangeShape::kSingleClosed:
      set.push(random_closed(rng, size));
      break;
    case RangeShape::kSingleOpen:
      set.push(ByteRangeSpec::open(rng.below(size)));
      break;
    case RangeShape::kSingleSuffix:
      set.push(ByteRangeSpec::suffix_of(rng.between(1, size)));
      break;
    case RangeShape::kTinyClosed: {
      const std::uint64_t k = rng.below(size);
      set.push(ByteRangeSpec::closed(k, k));
      break;
    }
    case RangeShape::kMultiDisjoint: {
      const std::size_t n = static_cast<std::size_t>(rng.between(2, 6));
      // Pick ascending disjoint ranges by walking a cursor forward.
      std::uint64_t cursor = 0;
      for (std::size_t i = 0; i < n && cursor < size; ++i) {
        const std::uint64_t first = rng.between(cursor, size - 1);
        const std::uint64_t last = rng.between(first, size - 1);
        set.push(ByteRangeSpec::closed(first, last));
        if (last + 2 > size) break;
        cursor = last + 2;
      }
      break;
    }
    case RangeShape::kMultiOverlapping: {
      const std::size_t n = static_cast<std::size_t>(rng.between(3, 16));
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(0.5)) {
          set.push(ByteRangeSpec::open(rng.below(std::min<std::uint64_t>(size, 4))));
        } else {
          const std::uint64_t first = rng.below(std::min<std::uint64_t>(size, 8));
          set.push(
              ByteRangeSpec::closed(first, rng.between(first, size - 1)));
        }
      }
      break;
    }
    case RangeShape::kManySmall: {
      const std::size_t n = static_cast<std::size_t>(rng.between(8, 64));
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t k = rng.below(size);
        set.push(ByteRangeSpec::closed(k, k));
      }
      break;
    }
  }
  if (set.empty()) set.push(ByteRangeSpec::closed(0, 0));
  return GeneratedRange{shape, std::move(set)};
}

std::vector<GeneratedRange> generate_corpus(std::uint64_t seed, std::size_t count,
                                            std::uint64_t resource_size) {
  static constexpr RangeShape kShapes[] = {
      RangeShape::kSingleClosed,  RangeShape::kSingleOpen,
      RangeShape::kSingleSuffix,  RangeShape::kTinyClosed,
      RangeShape::kMultiDisjoint, RangeShape::kMultiOverlapping,
      RangeShape::kManySmall,
  };
  Rng rng{seed};
  std::vector<GeneratedRange> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    corpus.push_back(
        generate_range(rng, kShapes[i % std::size(kShapes)], resource_size));
  }
  return corpus;
}

std::string_view shape_name(RangeShape shape) noexcept {
  switch (shape) {
    case RangeShape::kSingleClosed: return "bytes=first-last";
    case RangeShape::kSingleOpen: return "bytes=first-";
    case RangeShape::kSingleSuffix: return "bytes=-suffix";
    case RangeShape::kTinyClosed: return "bytes=k-k";
    case RangeShape::kMultiDisjoint: return "bytes=f1-l1,...,fn-ln (disjoint)";
    case RangeShape::kMultiOverlapping: return "bytes=s1-,s2-,... (overlapping)";
    case RangeShape::kManySmall: return "bytes=k1-k1,...,kn-kn (many small)";
  }
  return "?";
}

}  // namespace rangeamp::http
