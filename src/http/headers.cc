#include "http/headers.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

namespace rangeamp::http {
namespace {

constexpr unsigned char ascii_lower(unsigned char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A')) : c;
}

// Offsets and lengths are 32-bit.
constexpr std::size_t kMaxBlockBytes = std::numeric_limits<std::uint32_t>::max();

void check_block_size(std::size_t have, std::size_t more) {
  if (more > kMaxBlockBytes - have) {
    throw std::length_error("Headers: header block past 4 GiB");
  }
}

}  // namespace

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(static_cast<unsigned char>(a[i])) !=
        ascii_lower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Headers::Headers(std::initializer_list<HeaderField> fields) {
  std::size_t bytes = 0;
  for (const HeaderField& f : fields) bytes += field_bytes(f.name, f.value.size());
  reserve(bytes);
  for (const HeaderField& f : fields) add(f.name, f.value);
}

Headers::Headers(const Headers& other) { *this = other; }

Headers::Headers(Headers&& other) noexcept { *this = std::move(other); }

Headers& Headers::operator=(const Headers& other) {
  if (this != &other) {
    wire_ = other.wire_;
    count_ = 0;
    reserve_slots(other.count_);
    std::copy_n(other.slots(), other.count_, slots());
    count_ = other.count_;
  }
  return *this;
}

// The moved-from block is left empty.
Headers& Headers::operator=(Headers&& other) noexcept {
  if (this != &other) {
    wire_ = std::move(other.wire_);
    heap_ = std::move(other.heap_);
    count_ = std::exchange(other.count_, 0);
    capacity_ = std::exchange(other.capacity_, kInlineFields);
    if (!heap_) std::copy_n(other.inline_.data(), count_, inline_.data());
    other.wire_.clear();
  }
  return *this;
}

bool Headers::inside(std::string_view s) const noexcept {
  const std::less<const char*> before;
  return !s.empty() && !before(s.data(), wire_.data()) &&
         before(s.data(), wire_.data() + wire_.size());
}

void Headers::reserve_slots(std::size_t fields) {
  if (fields <= capacity_) return;
  const std::size_t grown = std::max<std::size_t>(fields, 2 * std::size_t{capacity_});
  auto index = std::make_unique_for_overwrite<Slot[]>(grown);
  std::copy_n(slots(), count_, index.get());
  heap_ = std::move(index);
  capacity_ = static_cast<std::uint32_t>(grown);
}

char* Headers::add_value(std::string_view name, std::size_t value_size) {
  if (inside(name)) return add_value(std::string{name}, value_size);
  const std::size_t offset = wire_.size();
  check_block_size(offset, value_size);
  check_block_size(offset + value_size, field_bytes(name, 0));
  reserve_slots(std::size_t{count_} + 1);
  wire_.resize(offset + field_bytes(name, value_size));
  char* p = std::copy(name.begin(), name.end(), wire_.data() + offset);
  *p++ = ':';
  *p++ = ' ';
  p[value_size] = '\r';
  p[value_size + 1] = '\n';
  slots()[count_++] = {static_cast<std::uint32_t>(offset),
                       static_cast<std::uint32_t>(name.size()),
                       static_cast<std::uint32_t>(value_size)};
  return p;
}

void Headers::add(std::string_view name, std::string_view value) {
  if (inside(value)) {
    const std::string copy{value};
    add(name, copy);
    return;
  }
  char* out = add_value(name, value.size());
  std::copy(value.begin(), value.end(), out);
}

void Headers::append(const Headers& other) {
  if (&other == this) {
    append(Headers{other});
    return;
  }
  const std::size_t base = wire_.size();
  check_block_size(base, other.wire_.size());
  reserve_slots(std::size_t{count_} + other.count_);
  wire_.append(other.wire_);
  const Slot* from = other.slots();
  Slot* to = slots() + count_;
  for (std::size_t i = 0; i < other.count_; ++i) {
    to[i] = {static_cast<std::uint32_t>(base + from[i].offset), from[i].name_size,
             from[i].value_size};
  }
  count_ += other.count_;
}

void Headers::set(std::string_view name, std::string_view value) {
  if (inside(name) || inside(value)) {
    const std::string copy = std::string{name}.append(value);
    const std::string_view both{copy};
    set(both.substr(0, name.size()), both.substr(name.size()));
    return;
  }
  Slot* s = slots();
  for (std::size_t i = 0; i < count_; ++i) {
    if (s[i].name_size != name.size() || !iequals(name_at(s[i].offset, s[i]), name)) {
      continue;
    }
    check_block_size(wire_.size() - s[i].value_size, value.size());
    wire_.replace(s[i].offset + s[i].name_size + 2, s[i].value_size, value);
    s[i].value_size = static_cast<std::uint32_t>(value.size());
    // The later fields moved with the new value's length; erase_from re-reads
    // them from their new positions and drops the duplicates.
    erase_from(i + 1, name);
    return;
  }
  add(name, value);
}

std::size_t Headers::remove(std::string_view name) {
  if (inside(name)) return remove(std::string{name});
  return erase_from(0, name);
}

// Drops the fields from index `first` on whose name is `name`, closing the
// gaps, and rewrites every later field's offset.  The fields are read in
// order from the end of field first-1, so their stored offsets may be stale.
std::size_t Headers::erase_from(std::size_t first, std::string_view name) {
  Slot* s = slots();
  const std::size_t start = first == 0 ? 0 : s[first - 1].offset + line_bytes(s[first - 1]);
  std::size_t read = start;
  std::size_t write = start;
  std::size_t kept = first;
  for (std::size_t i = first; i < count_; ++i) {
    const Slot slot = s[i];
    const std::size_t line = line_bytes(slot);
    if (slot.name_size != name.size() || !iequals(name_at(read, slot), name)) {
      if (write != read) std::memmove(wire_.data() + write, wire_.data() + read, line);
      s[kept++] = {static_cast<std::uint32_t>(write), slot.name_size, slot.value_size};
      write += line;
    }
    read += line;
  }
  wire_.resize(write);
  const std::size_t removed = count_ - kept;
  count_ = static_cast<std::uint32_t>(kept);
  return removed;
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const HeaderField f : *this) {
    if (f.name.size() == name.size() && iequals(f.name, name)) return f.value;
  }
  return std::nullopt;
}

std::string_view Headers::get_or(std::string_view name, std::string_view fallback) const {
  auto v = get(name);
  return v ? *v : fallback;
}

std::vector<std::string_view> Headers::get_all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const HeaderField f : *this) {
    if (iequals(f.name, name)) out.push_back(f.value);
  }
  return out;
}

}  // namespace rangeamp::http
