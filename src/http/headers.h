// HTTP header field collection.
//
// Header fields are kept in insertion order (the serialized byte count of a
// message depends on the exact order and spelling of its fields), while
// lookups are case-insensitive as required by RFC 7230 section 3.2.
//
// A block is stored in wire form: every field is the line
// "Name: value\r\n", in order, in one std::string, so the block's serialized
// size is that string's size and a serializer appends it in one call.  Beside
// it an index holds each field's (offset, name length, value length), with
// room inside the object for kInlineFields fields; a block with more moves
// its index to the heap.  Code that sizes the buffer first (reserve) makes
// a whole block with one allocation.
//
// Iteration, get, get_or and get_all return views into the buffer.  A view
// stays valid until the next add, add_value, set, remove, append, reserve,
// clear or assignment on the block, or its destruction.  add, add_value, set
// and remove copy arguments that view the block itself before they write.
// A block moved from is empty.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rangeamp::http {

/// ASCII case-insensitive string equality (header field names).  Only
/// `A`-`Z` fold, so the answer does not depend on the process locale.
bool iequals(std::string_view a, std::string_view b) noexcept;

/// A view of one header field, e.g. {"Content-Type", "image/jpeg"}: what
/// iterating a Headers block yields and what its initializer lists take.
struct HeaderField {
  std::string_view name;
  std::string_view value;

  /// Serialized size of the field line "Name: value" WITHOUT the trailing
  /// CRLF.  Several CDN request-header limits in the paper are expressed on
  /// this quantity (e.g. CDN77/CDNsun's 16 KB single-header limit).
  std::size_t line_size() const noexcept { return name.size() + 2 + value.size(); }
};

/// Ordered, case-insensitively searchable header block in wire form.
class Headers {
  struct Slot {
    std::uint32_t offset;  ///< of the name, from the start of the block
    std::uint32_t name_size;
    std::uint32_t value_size;
  };

 public:
  /// Fields whose index entries fit inside the object.
  static constexpr std::size_t kInlineFields = 14;

  /// Bytes the line "Name: value\r\n" takes in a block.
  static constexpr std::size_t field_bytes(std::string_view name,
                                           std::size_t value_size) noexcept {
    return name.size() + value_size + 4;
  }

  Headers() noexcept {}  // leaves the inline index unwritten until used
  Headers(std::initializer_list<HeaderField> fields);
  Headers(const Headers& other);
  Headers(Headers&& other) noexcept;
  Headers& operator=(const Headers& other);
  Headers& operator=(Headers&& other) noexcept;
  ~Headers() = default;

  /// Appends a field, keeping any existing fields with the same name.
  /// Throws std::length_error past a 4 GiB block.
  void add(std::string_view name, std::string_view value);

  /// Appends a field whose `value_size`-byte value the caller writes through
  /// the returned pointer before the next call on the block.
  char* add_value(std::string_view name, std::size_t value_size);

  /// Appends a copy of every field of `other`, in order: one copy of its
  /// buffer.
  void append(const Headers& other);

  /// Sizes the buffer for a block of `bytes` serialized bytes, so code that
  /// knows its block's size allocates once.
  void reserve(std::size_t bytes) { wire_.reserve(bytes); }

  /// Replaces the first field with this name (appends if absent) and removes
  /// any further duplicates.
  void set(std::string_view name, std::string_view value);

  /// Removes every field with this name. Returns the number removed.
  std::size_t remove(std::string_view name);

  /// First value for the name, if present.
  std::optional<std::string_view> get(std::string_view name) const;

  /// First value for the name, or `fallback` when absent.
  std::string_view get_or(std::string_view name, std::string_view fallback) const;

  bool has(std::string_view name) const { return get(name).has_value(); }

  /// Every value carried by fields with this name, in order.
  std::vector<std::string_view> get_all(std::string_view name) const;

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  void clear() noexcept {
    wire_.clear();
    count_ = 0;
  }

  /// Total serialized size of the header block: each field as
  /// "Name: value\r\n".  Excludes the blank line that ends the block.
  std::size_t serialized_size() const noexcept { return wire_.size(); }

  /// The block's bytes, exactly as serialized.
  std::string_view wire() const noexcept { return wire_; }

  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = HeaderField;
    using difference_type = std::ptrdiff_t;
    using reference = HeaderField;
    using pointer = void;

    const_iterator() = default;
    HeaderField operator*() const noexcept {
      const char* name = base_ + slot_->offset;
      return {{name, slot_->name_size},
              {name + slot_->name_size + 2, slot_->value_size}};
    }
    const_iterator& operator++() noexcept {
      ++slot_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator before = *this;
      ++slot_;
      return before;
    }
    bool operator==(const const_iterator& other) const noexcept {
      return slot_ == other.slot_;
    }

   private:
    friend class Headers;
    const_iterator(const char* base, const Slot* slot) : base_(base), slot_(slot) {}
    const char* base_ = nullptr;
    const Slot* slot_ = nullptr;
  };

  const_iterator begin() const noexcept { return {wire_.data(), slots()}; }
  const_iterator end() const noexcept { return {wire_.data(), slots() + count_}; }

 private:
  Slot* slots() noexcept { return heap_ ? heap_.get() : inline_.data(); }
  const Slot* slots() const noexcept { return heap_ ? heap_.get() : inline_.data(); }
  static std::size_t line_bytes(const Slot& slot) noexcept {
    return std::size_t{slot.name_size} + slot.value_size + 4;
  }
  std::string_view name_at(std::size_t offset, const Slot& slot) const noexcept {
    return {wire_.data() + offset, slot.name_size};
  }
  bool inside(std::string_view s) const noexcept;
  void reserve_slots(std::size_t fields);
  std::size_t erase_from(std::size_t first, std::string_view name);

  std::string wire_;
  std::unique_ptr<Slot[]> heap_;  ///< the index, once it outgrows inline_
  std::uint32_t count_ = 0;
  std::uint32_t capacity_ = kInlineFields;
  std::array<Slot, kInlineFields> inline_;
};

}  // namespace rangeamp::http
