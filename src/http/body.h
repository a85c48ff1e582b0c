// Message body representation.
//
// The experiments in the paper move resources of up to 25 MB through several
// network segments thousands of times.  The metric is always *bytes on the
// wire*, so materializing those payloads would be pure waste.  A Body is a
// sequence of chunks of three kinds:
//
//   * a literal string (error notes, small test payloads, bytes read off a
//     socket);
//   * a *synthetic span*: a (resource seed, offset, length) triple whose
//     bytes are produced by a deterministic function on demand;
//   * a *run span*: a window onto an immutable, shared multipart run
//     (http/multipart.h).  A whole n-part multipart/byteranges answer is one
//     such chunk; its heads and payloads are generated only when something
//     writes its bytes.  The run lists a part once per stretch of
//     consecutive repeats, so an OBR answer of n identical parts is one
//     listed part with count n.
//
// Sizes -- the quantity every experiment measures -- never touch a payload
// byte: size() sums chunk lengths, O(number of chunks).  Copying, slicing and
// truncating a run span copy a shared_ptr and move its window, so an n-part
// answer crosses every hop in O(1).  A window keeps its whole run (the head
// text, the part list and the source body) alive.
//
// Synthetic bytes are deterministic in (seed, absolute offset), so a slice of
// a synthetic body equals the corresponding substring of the materialized
// whole; tests rely on this to verify range semantics byte-for-byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rangeamp::http {

class MultipartRun;

/// The deterministic content byte of synthetic resource `seed` at `offset`.
std::uint8_t synthetic_byte(std::uint64_t seed, std::uint64_t offset) noexcept;

/// A contiguous run of synthetic resource bytes.
struct SyntheticSpan {
  std::uint64_t seed = 0;    ///< identifies the resource's content stream
  std::uint64_t offset = 0;  ///< absolute offset within that stream
  std::uint64_t length = 0;

  bool operator==(const SyntheticSpan&) const = default;
};

/// The bytes [first, first+length) of a multipart run.
struct RunSpan {
  std::shared_ptr<const MultipartRun> run;
  std::uint64_t first = 0;
  std::uint64_t length = 0;

  bool operator==(const RunSpan&) const = default;
};

/// A body chunk: literal bytes, a synthetic span or a run window.
using BodyChunk = std::variant<std::string, SyntheticSpan, RunSpan>;
static_assert(sizeof(BodyChunk) == 40, "a body chunk stays five words");

/// Bytes in one chunk.
std::uint64_t chunk_size(const BodyChunk& chunk) noexcept;

/// Appends bytes [first, first+length) of `chunk` to `out`.
/// Requires first + length <= chunk_size(chunk).
void write_chunk(std::string& out, const BodyChunk& chunk, std::uint64_t first,
                 std::uint64_t length);

/// A message body as an ordered chunk list.
class Body {
 public:
  Body() = default;

  /// A body holding literal bytes.
  static Body literal(std::string bytes);

  /// A body holding `length` synthetic bytes of resource `seed`, starting at
  /// absolute offset `offset` within the resource.
  static Body synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length);

  /// Appends a chunk, merging it into the last one when it continues it: a
  /// literal after a literal, the next span of the same synthetic stream, or
  /// the next window of the same run.
  void append(BodyChunk chunk);
  void append_literal(std::string_view bytes);
  void append_synthetic(std::uint64_t seed, std::uint64_t offset, std::uint64_t length);
  void append_body(const Body& other);

  /// Appends the bytes of `src` at positions [first, first+length) -- what
  /// append_body(src.slice(first, length)) appends, without the temporary.
  /// Requires first + length <= src.size() and &src != this.
  void append_slice(const Body& src, std::uint64_t first, std::uint64_t length);

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

  /// Appends the bytes at positions [first, first+length) to `out`.
  /// Requires first + length <= size().
  void write_to(std::string& out, std::uint64_t first, std::uint64_t length) const;

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
static_assert(sizeof(Body) == 24, "a body stays one vector");

}  // namespace rangeamp::http
