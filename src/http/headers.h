// HTTP header field collection.
//
// Header fields are kept in insertion order (the serialized byte count of a
// message depends on the exact order and spelling of its fields), while
// lookups are case-insensitive as required by RFC 7230 section 3.2.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rangeamp::http {

/// ASCII case-insensitive string equality (header field names).  Only
/// `A`-`Z` fold, so the answer does not depend on the process locale.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// A single header field, e.g. {"Content-Type", "image/jpeg"}.
struct HeaderField {
  std::string name;
  std::string value;

  /// Serialized size of the field line "Name: value" WITHOUT the trailing
  /// CRLF.  Several CDN request-header limits in the paper are expressed on
  /// this quantity (e.g. CDN77/CDNsun's 16 KB single-header limit).
  std::size_t line_size() const noexcept { return name.size() + 2 + value.size(); }
};

/// Ordered, case-insensitively searchable header collection.
class Headers {
 public:
  Headers() = default;
  Headers(std::initializer_list<HeaderField> fields) : fields_(fields) {}

  /// Appends a field, keeping any existing fields with the same name.
  void add(std::string name, std::string value);

  /// Moves every field of `other` onto the end, in order.
  void append(Headers&& other);

  /// Reserves room for `fields` fields, so a builder that knows its final
  /// field count sizes the list once.
  void reserve(std::size_t fields) { fields_.reserve(fields); }

  /// Replaces the first field with this name (appends if absent) and removes
  /// any further duplicates.
  void set(std::string name, std::string value);

  /// Removes every field with this name. Returns the number removed.
  std::size_t remove(std::string_view name);

  /// First value for the name, if present.
  std::optional<std::string_view> get(std::string_view name) const;

  /// First value for the name, or `fallback` when absent.
  std::string_view get_or(std::string_view name, std::string_view fallback) const;

  bool has(std::string_view name) const { return get(name).has_value(); }

  /// Every value carried by fields with this name, in order.
  std::vector<std::string_view> get_all(std::string_view name) const;

  const std::vector<HeaderField>& fields() const noexcept { return fields_; }
  std::size_t size() const noexcept { return fields_.size(); }
  bool empty() const noexcept { return fields_.empty(); }
  void clear() { fields_.clear(); }

  /// Total serialized size of the header block: each field as
  /// "Name: value\r\n".  Excludes the blank line that ends the block.
  std::size_t serialized_size() const noexcept;

  auto begin() const { return fields_.begin(); }
  auto end() const { return fields_.end(); }

 private:
  std::vector<HeaderField> fields_;
};

}  // namespace rangeamp::http
