#include "http/body.h"

#include <algorithm>
#include <cassert>

namespace rangeamp::http {
namespace {

std::uint64_t chunk_size(const BodyChunk& c) noexcept {
  if (const auto* s = std::get_if<std::string>(&c)) return s->size();
  return std::get<SyntheticSpan>(c).length;
}

}  // namespace

std::uint8_t synthetic_byte(std::uint64_t seed, std::uint64_t offset) noexcept {
  // splitmix64-style mix of (seed, offset): cheap, well distributed, and
  // stable across platforms so serialized byte counts are reproducible.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + offset + 0xD1B54A32D192ED03ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint8_t>(x & 0xFF);
}

Body Body::literal(std::string bytes) {
  Body b;
  if (!bytes.empty()) b.chunks_.emplace_back(std::move(bytes));
  return b;
}

Body Body::synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length) {
  Body b;
  if (length > 0) b.chunks_.emplace_back(SyntheticSpan{seed, offset, length});
  return b;
}

void Body::append(BodyChunk chunk) {
  if (auto* s = std::get_if<std::string>(&chunk)) {
    if (s->empty()) return;
    if (!chunks_.empty()) {
      if (auto* prev = std::get_if<std::string>(&chunks_.back())) {
        prev->append(*s);
        return;
      }
    }
  } else if (auto* span = std::get_if<SyntheticSpan>(&chunk)) {
    if (span->length == 0) return;
    if (!chunks_.empty()) {
      if (auto* prev = std::get_if<SyntheticSpan>(&chunks_.back())) {
        if (prev->seed == span->seed && prev->offset + prev->length == span->offset) {
          prev->length += span->length;
          return;
        }
      }
    }
  }
  chunks_.push_back(std::move(chunk));
}

void Body::append_literal(std::string_view bytes) { append(std::string{bytes}); }

void Body::append_synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length) {
  append(SyntheticSpan{seed, offset, length});
}

void Body::append_body(const Body& other) {
  for (const auto& c : other.chunks_) append(c);
}

void Body::append_slice(const Body& src, std::uint64_t first,
                        std::uint64_t length) {
  assert(&src != this && first + length <= src.size());
  for (const auto& c : src.chunks_) {
    if (length == 0) break;
    const std::uint64_t chunk_len = chunk_size(c);
    if (first >= chunk_len) {  // the slice starts past this chunk
      first -= chunk_len;
      continue;
    }
    const std::uint64_t take = std::min(chunk_len - first, length);
    if (const auto* s = std::get_if<std::string>(&c)) {
      append_literal(std::string_view{*s}.substr(first, take));
    } else {
      const auto& span = std::get<SyntheticSpan>(c);
      append_synthetic(span.seed, span.offset + first, take);
    }
    first = 0;
    length -= take;
  }
}

std::uint64_t Body::size() const noexcept {
  std::uint64_t total = 0;
  for (const auto& c : chunks_) total += chunk_size(c);
  return total;
}

Body Body::slice(std::uint64_t first, std::uint64_t length) const {
  Body out;
  out.append_slice(*this, first, length);
  return out;
}

void Body::truncate(std::uint64_t max_bytes) {
  if (size() <= max_bytes) return;
  *this = slice(0, max_bytes);
}

std::string Body::materialize() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(size()));
  for (const auto& c : chunks_) {
    if (const auto* s = std::get_if<std::string>(&c)) {
      out.append(*s);
    } else {
      const auto& span = std::get<SyntheticSpan>(c);
      for (std::uint64_t i = 0; i < span.length; ++i) {
        out.push_back(static_cast<char>(synthetic_byte(span.seed, span.offset + i)));
      }
    }
  }
  return out;
}

std::uint8_t Body::at(std::uint64_t pos) const {
  assert(pos < size());
  std::uint64_t chunk_start = 0;
  for (const auto& c : chunks_) {
    const std::uint64_t chunk_len = chunk_size(c);
    if (pos < chunk_start + chunk_len) {
      const std::uint64_t off = pos - chunk_start;
      if (const auto* s = std::get_if<std::string>(&c)) {
        return static_cast<std::uint8_t>((*s)[static_cast<std::size_t>(off)]);
      }
      const auto& span = std::get<SyntheticSpan>(c);
      return synthetic_byte(span.seed, span.offset + off);
    }
    chunk_start += chunk_len;
  }
  assert(false && "position out of range");
  return 0;
}

bool Body::operator==(const Body& other) const {
  const std::uint64_t n = size();
  if (n != other.size()) return false;
  // Chunk layouts may differ; compare logical bytes.  Fast path: identical
  // chunk vectors.
  if (chunks_ == other.chunks_) return true;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (at(i) != other.at(i)) return false;
  }
  return true;
}

}  // namespace rangeamp::http
