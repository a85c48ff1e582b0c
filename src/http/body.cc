#include "http/body.h"

#include <algorithm>
#include <cassert>

#include "http/multipart.h"

namespace rangeamp::http {
namespace {

// `chunk` cut down to bytes [first, first+length).
BodyChunk sub_chunk(const BodyChunk& chunk, std::uint64_t first,
                    std::uint64_t length) {
  if (const auto* s = std::get_if<std::string>(&chunk)) {
    return s->substr(static_cast<std::size_t>(first),
                     static_cast<std::size_t>(length));
  }
  if (const auto* span = std::get_if<SyntheticSpan>(&chunk)) {
    return SyntheticSpan{span->seed, span->offset + first, length};
  }
  const auto& window = std::get<RunSpan>(chunk);
  return RunSpan{window.run, window.first + first, length};
}

}  // namespace

std::uint64_t chunk_size(const BodyChunk& chunk) noexcept {
  if (const auto* s = std::get_if<std::string>(&chunk)) return s->size();
  if (const auto* span = std::get_if<SyntheticSpan>(&chunk)) return span->length;
  return std::get<RunSpan>(chunk).length;
}

void write_chunk(std::string& out, const BodyChunk& chunk, std::uint64_t first,
                 std::uint64_t length) {
  assert(first + length <= chunk_size(chunk));
  if (const auto* s = std::get_if<std::string>(&chunk)) {
    out.append(*s, static_cast<std::size_t>(first),
               static_cast<std::size_t>(length));
  } else if (const auto* span = std::get_if<SyntheticSpan>(&chunk)) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(length));
    for (std::uint64_t i = 0; i < length; ++i) {
      out[at + i] = static_cast<char>(synthetic_byte(span->seed, span->offset + first + i));
    }
  } else {
    const auto& window = std::get<RunSpan>(chunk);
    window.run->write_to(out, window.first + first, length);
  }
}

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
  if (chunk_size(chunk) == 0) return;
  if (!chunks_.empty()) {
    BodyChunk& prev = chunks_.back();
    if (auto* s = std::get_if<std::string>(&chunk)) {
      if (auto* p = std::get_if<std::string>(&prev)) {
        p->append(*s);
        return;
      }
    } else if (auto* span = std::get_if<SyntheticSpan>(&chunk)) {
      auto* p = std::get_if<SyntheticSpan>(&prev);
      if (p && p->seed == span->seed && p->offset + p->length == span->offset) {
        p->length += span->length;
        return;
      }
    } else {
      const auto& window = std::get<RunSpan>(chunk);
      auto* p = std::get_if<RunSpan>(&prev);
      if (p && p->run == window.run && p->first + p->length == window.first) {
        p->length += window.length;
        return;
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
    append(sub_chunk(c, first, take));
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
  auto it = chunks_.begin();
  for (; it != chunks_.end() && chunk_size(*it) <= max_bytes; ++it) {
    max_bytes -= chunk_size(*it);
  }
  if (it == chunks_.end()) return;
  if (max_bytes > 0) {  // the cut falls inside this chunk
    *it = sub_chunk(*it, 0, max_bytes);
    ++it;
  }
  chunks_.erase(it, chunks_.end());
}

void Body::write_to(std::string& out, std::uint64_t first,
                    std::uint64_t length) const {
  assert(first + length <= size());
  for (const auto& c : chunks_) {
    if (length == 0) break;
    const std::uint64_t chunk_len = chunk_size(c);
    if (first >= chunk_len) {
      first -= chunk_len;
      continue;
    }
    const std::uint64_t take = std::min(chunk_len - first, length);
    write_chunk(out, c, first, take);
    first = 0;
    length -= take;
  }
}

std::string Body::materialize() const {
  const std::uint64_t n = size();
  std::string out;
  out.reserve(static_cast<std::size_t>(n));
  write_to(out, 0, n);
  return out;
}

std::uint8_t Body::at(std::uint64_t pos) const {
  assert(pos < size());
  std::string byte;  // one byte: no allocation
  write_to(byte, pos, 1);
  return static_cast<std::uint8_t>(byte[0]);
}

bool Body::operator==(const Body& other) const {
  if (size() != other.size()) return false;
  // Chunk layouts may differ; compare logical bytes.  Fast path: identical
  // chunk vectors.  The fallback writes both bodies: a run generates its
  // bytes in one pass, where at() would pay a search per byte.
  return chunks_ == other.chunks_ || materialize() == other.materialize();
}

}  // namespace rangeamp::http
