#include "http/headers.h"

#include <algorithm>
#include <iterator>

namespace rangeamp::http {
namespace {

constexpr unsigned char ascii_lower(unsigned char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<unsigned char>(c + ('a' - 'A')) : c;
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

void Headers::add(std::string name, std::string value) {
  fields_.push_back({std::move(name), std::move(value)});
}

void Headers::append(Headers&& other) {
  fields_.insert(fields_.end(), std::make_move_iterator(other.fields_.begin()),
                 std::make_move_iterator(other.fields_.end()));
  other.fields_.clear();
}

void Headers::set(std::string name, std::string value) {
  bool replaced = false;
  for (auto it = fields_.begin(); it != fields_.end();) {
    if (iequals(it->name, name)) {
      if (!replaced) {
        it->value = std::move(value);
        replaced = true;
        ++it;
      } else {
        it = fields_.erase(it);
      }
    } else {
      ++it;
    }
  }
  if (!replaced) fields_.push_back({std::move(name), std::move(value)});
}

std::size_t Headers::remove(std::string_view name) {
  const auto before = fields_.size();
  std::erase_if(fields_, [&](const HeaderField& f) { return iequals(f.name, name); });
  return before - fields_.size();
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& f : fields_) {
    if (iequals(f.name, name)) return std::string_view{f.value};
  }
  return std::nullopt;
}

std::string_view Headers::get_or(std::string_view name, std::string_view fallback) const {
  auto v = get(name);
  return v ? *v : fallback;
}

std::vector<std::string_view> Headers::get_all(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& f : fields_) {
    if (iequals(f.name, name)) out.emplace_back(f.value);
  }
  return out;
}

std::size_t Headers::serialized_size() const noexcept {
  std::size_t total = 0;
  for (const auto& f : fields_) total += f.line_size() + 2;  // CRLF
  return total;
}

}  // namespace rangeamp::http
