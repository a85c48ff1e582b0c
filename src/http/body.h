// Message body representation.
//
// The experiments in the paper move resources of up to 25 MB through several
// network segments thousands of times.  The metric is always *bytes on the
// wire*, so materializing those payloads would be pure waste.  A Body is a
// sequence of chunks; a chunk is either a literal string (multipart framing,
// small test payloads) or a *synthetic span*: a (resource seed, offset,
// length) triple whose bytes are produced by a deterministic function on
// demand.  Sizes -- the quantity every experiment measures -- never touch a
// payload byte: size() sums chunk lengths, O(number of chunks).
//
// Synthetic bytes are deterministic in (seed, absolute offset), so a slice of
// a synthetic body equals the corresponding substring of the materialized
// whole; tests rely on this to verify range semantics byte-for-byte.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rangeamp::http {

/// The deterministic content byte of synthetic resource `seed` at `offset`.
std::uint8_t synthetic_byte(std::uint64_t seed, std::uint64_t offset) noexcept;

/// A contiguous run of synthetic resource bytes.
struct SyntheticSpan {
  std::uint64_t seed = 0;    ///< identifies the resource's content stream
  std::uint64_t offset = 0;  ///< absolute offset within that stream
  std::uint64_t length = 0;

  bool operator==(const SyntheticSpan&) const = default;
};

/// A body chunk: literal bytes or a synthetic span.
using BodyChunk = std::variant<std::string, SyntheticSpan>;

/// A message body as an ordered chunk list.
class Body {
 public:
  Body() = default;

  /// A body holding literal bytes.
  static Body literal(std::string bytes);

  /// A body holding `length` synthetic bytes of resource `seed`, starting at
  /// absolute offset `offset` within the resource.
  static Body synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length);

  /// Appends a chunk (merging adjacent compatible chunks when possible).
  void append(BodyChunk chunk);
  void append_literal(std::string_view bytes);
  void append_synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length);
  void append_body(const Body& other);

  /// Appends the bytes of `src` at positions [first, first+length) -- what
  /// append_body(src.slice(first, length)) appends, without the temporary.
  /// Requires first + length <= src.size() and &src != this.
  void append_slice(const Body& src, std::uint64_t first, std::uint64_t length);

  /// Reserves room for `chunks` chunks, so a body assembled part by part
  /// does not regrow (and recopy) its chunk list.
  void reserve(std::size_t chunks) { chunks_.reserve(chunks); }

  /// Total size in bytes. O(number of chunks).
  std::uint64_t size() const noexcept;

  bool empty() const noexcept { return size() == 0; }

  /// The sub-body covering byte positions [first, first+length).
  /// Requires first + length <= size().
  Body slice(std::uint64_t first, std::uint64_t length) const;

  /// Truncates the body to at most `max_bytes` (used to model aborted
  /// transfers, e.g. Azure closing its first back-to-origin connection once
  /// 8 MB of payload have arrived).
  void truncate(std::uint64_t max_bytes);

  /// Materializes the full byte string.  Intended for tests and small bodies;
  /// asserts nothing but obviously costs O(size()).
  std::string materialize() const;

  /// The byte at position `pos` without materializing. Requires pos < size().
  std::uint8_t at(std::uint64_t pos) const;

  const std::vector<BodyChunk>& chunks() const noexcept { return chunks_; }

  bool operator==(const Body& other) const;

 private:
  std::vector<BodyChunk> chunks_;
};

}  // namespace rangeamp::http
