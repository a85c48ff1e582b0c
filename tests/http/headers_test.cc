#include "http/headers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "http/message.h"
#include "http/serialize.h"

namespace rangeamp::http {
namespace {

using Fields = std::vector<std::pair<std::string, std::string>>;

// The block's fields in order, copied out of its buffer.
Fields fields_of(const Headers& h) {
  Fields out;
  for (const HeaderField f : h) out.emplace_back(f.name, f.value);
  return out;
}

TEST(IEquals, MatchesCaseInsensitively) {
  EXPECT_TRUE(iequals("Content-Type", "content-type"));
  EXPECT_TRUE(iequals("RANGE", "range"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("Range", "Ranges"));
  EXPECT_FALSE(iequals("Range", "Rang"));
  EXPECT_FALSE(iequals("a", "b"));
}

// Differential check of the ASCII fold against the std::tolower form it
// replaced, over every byte pair.  The program runs in the "C" locale (no
// setlocale call), where std::tolower folds exactly A-Z.
TEST(IEquals, MatchesTolowerOnEveryBytePair) {
  int mismatches = 0;
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      const std::string x(1, static_cast<char>(a));
      const std::string y(1, static_cast<char>(b));
      const bool expected = std::tolower(a) == std::tolower(b);
      if (iequals(x, y) != expected) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_TRUE(iequals("X-Edge-TRACE\xC4", "x-edge-trace\xC4"));
  EXPECT_FALSE(iequals("\xC4", "\xE4"));  // Latin-1 case pairs do not fold
}

TEST(Headers, AppendCopiesFieldsInOrder) {
  Headers h{{"Date", "d"}};
  const Headers more{{"ETag", "\"e\""}, {"Content-Length", "1"}};
  h.reserve(h.serialized_size() + more.serialized_size());
  h.append(more);
  EXPECT_EQ(fields_of(h),
            (Fields{{"Date", "d"}, {"ETag", "\"e\""}, {"Content-Length", "1"}}));
  EXPECT_EQ(h.get("content-length"), "1");
  EXPECT_EQ(h.wire(), "Date: d\r\nETag: \"e\"\r\nContent-Length: 1\r\n");
  EXPECT_EQ(fields_of(more), (Fields{{"ETag", "\"e\""}, {"Content-Length", "1"}}));
}

TEST(Headers, AddKeepsDuplicatesAndOrder) {
  Headers h;
  h.add("Via", "1.1 a");
  h.add("X-Cache", "MISS");
  h.add("Via", "1.1 b");
  EXPECT_EQ(h.size(), 3u);
  EXPECT_EQ(fields_of(h),
            (Fields{{"Via", "1.1 a"}, {"X-Cache", "MISS"}, {"Via", "1.1 b"}}));
  const auto all = h.get_all("via");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "1.1 a");
  EXPECT_EQ(all[1], "1.1 b");
}

TEST(Headers, GetIsCaseInsensitive) {
  Headers h{{"Content-Length", "42"}};
  EXPECT_EQ(h.get("content-length"), "42");
  EXPECT_EQ(h.get("CONTENT-LENGTH"), "42");
  EXPECT_FALSE(h.get("Content-Range").has_value());
}

TEST(Headers, GetOrFallsBack) {
  Headers h;
  EXPECT_EQ(h.get_or("Host", "none"), "none");
  h.add("Host", "example.com");
  EXPECT_EQ(h.get_or("Host", "none"), "example.com");
}

TEST(Headers, SetReplacesFirstAndDropsRest) {
  Headers h;
  h.add("Via", "1.1 a");
  h.add("X", "y");
  h.add("Via", "1.1 b");
  h.set("Via", "1.1 c");
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(fields_of(h), (Fields{{"Via", "1.1 c"}, {"X", "y"}}));
  EXPECT_EQ(h.serialized_size(), h.wire().size());
}

TEST(Headers, SetAppendsWhenAbsent) {
  Headers h;
  h.set("Range", "bytes=0-0");
  ASSERT_EQ(h.size(), 1u);
  EXPECT_EQ(h.get("Range"), "bytes=0-0");
}

TEST(Headers, RemoveDropsAllMatches) {
  Headers h;
  h.add("Via", "a");
  h.add("via", "b");
  h.add("Host", "x");
  EXPECT_EQ(h.remove("VIA"), 2u);
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.remove("Nope"), 0u);
}

TEST(Headers, SerializedSizeIsExact) {
  Headers h;
  EXPECT_EQ(h.serialized_size(), 0u);
  h.add("Host", "example.com");  // "Host: example.com\r\n" = 19
  EXPECT_EQ(h.serialized_size(), 19u);
  h.add("Range", "bytes=0-0");  // "Range: bytes=0-0\r\n" = 18
  EXPECT_EQ(h.serialized_size(), 37u);
}

// The reference the differential test checks a block against: a plain
// list of owned name/value pairs with the documented semantics.
class Model {
 public:
  void add(std::string name, std::string value) {
    fields_.emplace_back(std::move(name), std::move(value));
  }
  void set(const std::string& name, const std::string& value) {
    bool replaced = false;
    for (auto it = fields_.begin(); it != fields_.end();) {
      if (!iequals(it->first, name)) {
        ++it;
      } else if (!replaced) {
        it->second = value;
        replaced = true;
        ++it;
      } else {
        it = fields_.erase(it);
      }
    }
    if (!replaced) add(name, value);
  }
  std::size_t remove(const std::string& name) {
    return std::erase_if(fields_, [&](const auto& f) { return iequals(f.first, name); });
  }
  std::optional<std::string> get(const std::string& name) const {
    for (const auto& f : fields_) {
      if (iequals(f.first, name)) return f.second;
    }
    return std::nullopt;
  }
  std::vector<std::string> get_all(const std::string& name) const {
    std::vector<std::string> out;
    for (const auto& f : fields_) {
      if (iequals(f.first, name)) out.push_back(f.second);
    }
    return out;
  }
  void append(const Model& other) {
    const Fields copy = other.fields_;  // other may be *this
    fields_.insert(fields_.end(), copy.begin(), copy.end());
  }
  void clear() { fields_.clear(); }
  const Fields& fields() const { return fields_; }

 private:
  Fields fields_;
};

// splitmix64: the same draws on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  bool chance(unsigned percent) { return below(100) < percent; }

 private:
  std::uint64_t state_;
};

std::string random_name(Rng& rng) {
  static const char* const kNames[] = {"Via", "Host", "Range", "X-Cache", "ETag",
                                       "Content-Length", "CDN-Loop", "A"};
  std::string name = kNames[rng.below(std::size(kNames))];
  if (rng.chance(5)) name.append(40 + rng.below(200), 'n');
  for (char& c : name) {  // mixed case: every spelling names the same field
    if (rng.chance(30)) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    if (rng.chance(30)) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return name;
}

std::string random_value(Rng& rng) {
  const std::size_t size = rng.chance(10)   ? 0
                           : rng.chance(2)  ? 1 + rng.below(40'000)
                           : rng.chance(20) ? 16 + rng.below(200)
                                            : 1 + rng.below(15);
  std::string value(size, '\0');
  for (char& c : value) c = static_cast<char>('a' + rng.below(26));
  return value;
}

// What to_bytes writes for a request carrying `fields`.
std::string request_bytes(const Fields& fields) {
  std::string out = "GET / HTTP/1.1\r\n";
  for (const auto& [name, value] : fields) out += name + ": " + value + "\r\n";
  return out + "\r\n";
}

void expect_same(const Headers& h, const Model& model) {
  const Fields& fields = model.fields();
  ASSERT_EQ(fields_of(h), fields);
  ASSERT_EQ(h.size(), fields.size());
  ASSERT_EQ(h.empty(), fields.empty());
  std::size_t bytes = 0;
  for (const auto& [name, value] : fields) bytes += name.size() + value.size() + 4;
  ASSERT_EQ(h.serialized_size(), bytes);
  Request request;
  request.headers = h;
  ASSERT_EQ(to_bytes(request), request_bytes(fields));
}

// Seeded random sequences of every operation on a block and on the model:
// mixed-case and duplicate names, empty values and values of up to 40 000
// bytes, blocks past the inline index, and add/set whose arguments are
// views into the block itself.  After each step the fields, their order,
// size(), serialized_size() and the serialized request must agree.
TEST(Headers, MatchesReferenceListOnSeededSequences) {
  Rng rng(0x6865'6164'6572'73ULL);
  std::size_t largest = 0;
  std::size_t aliased = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    Headers h;
    Model model;
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::size_t op = rng.below(100);
      if (op < 35) {
        std::string name = random_name(rng);
        std::string value = random_value(rng);
        h.add(name, value);
        model.add(std::move(name), std::move(value));
      } else if (op < 45) {
        const std::string name = random_name(rng);
        const std::string value = random_value(rng);
        h.set(name, value);
        model.set(name, value);
      } else if (op < 55 && !model.fields().empty()) {
        // Arguments that view the block's own fields.
        ++aliased;
        const auto [name, value] = model.fields()[rng.below(model.fields().size())];
        HeaderField own{};
        for (const HeaderField f : h) {
          if (f.name == name && f.value == value) own = f;
        }
        const bool set = rng.chance(50);
        const std::string_view arg_name = rng.chance(50) ? own.name : "Via";
        const std::string_view arg_value = rng.chance(70) ? own.value : "v";
        const std::string model_name{arg_name};
        const std::string model_value{arg_value};
        if (set) {
          h.set(arg_name, arg_value);
          model.set(model_name, model_value);
        } else {
          h.add(arg_name, arg_value);
          model.add(model_name, model_value);
        }
      } else if (op < 63) {
        const std::string name = random_name(rng);
        ASSERT_EQ(h.remove(name), model.remove(name));
      } else if (op < 75) {
        const std::string name = random_name(rng);
        const auto got = h.get(name);
        const auto want = model.get(name);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want) {
          ASSERT_EQ(*got, *want);
        }
        ASSERT_EQ(h.get_or(name, "fallback"), want.value_or("fallback"));
        ASSERT_EQ(h.has(name), want.has_value());
        const auto all = h.get_all(name);
        ASSERT_EQ(std::vector<std::string>(all.begin(), all.end()), model.get_all(name));
      } else if (op < 83) {
        // Append a random block, or the block to itself.
        Headers other;
        Model other_model;
        if (rng.chance(20)) {
          h.append(h);
          model.append(model);
        } else {
          for (std::size_t i = rng.below(20); i > 0; --i) {
            std::string name = random_name(rng);
            std::string value = random_value(rng);
            other.add(name, value);
            other_model.add(std::move(name), std::move(value));
          }
          h.append(other);
          model.append(other_model);
          expect_same(other, other_model);
        }
      } else if (op < 87) {
        Headers copy{h};
        expect_same(copy, model);
        if (rng.chance(50)) copy.add("X-Copy", "only in the copy");
        Headers assigned;
        assigned.add("Old", "replaced by the assignment");
        assigned = h;
        expect_same(assigned, model);
        expect_same(h, model);
      } else if (op < 91) {
        Headers moved{std::move(h)};
        expect_same(moved, model);
        EXPECT_TRUE(h.empty());  // NOLINT(bugprone-use-after-move)
        h.add("Reused", "after the move");
        h = std::move(moved);
      } else if (op < 93) {
        h.clear();
        model.clear();
      } else if (op < 97) {
        // Grow past the inline index.
        for (std::size_t i = Headers::kInlineFields + rng.below(8); i > 0; --i) {
          std::string name = random_name(rng);
          std::string value = random_value(rng);
          h.add(name, value);
          model.add(std::move(name), std::move(value));
        }
      } else {
        h.reserve(h.serialized_size() + rng.below(4096));
      }
      expect_same(h, model);
      largest = std::max(largest, h.size());
    }
  }
  EXPECT_GT(largest, Headers::kInlineFields);
  EXPECT_GT(aliased, 300u);
}

TEST(Headers, AddValueWritesInPlace) {
  Headers h{{"Host", "example.com"}};
  char* value = h.add_value("Range", 9);
  std::string_view{"bytes=0-0"}.copy(value, 9);
  EXPECT_EQ(h.get("range"), "bytes=0-0");
  EXPECT_EQ(h.wire(), "Host: example.com\r\nRange: bytes=0-0\r\n");
  EXPECT_EQ(h.serialized_size(), 37u);
}

TEST(HeaderField, LineSizeExcludesCrlf) {
  HeaderField f{"Range", "bytes=0-0"};
  // "Range: bytes=0-0" = 5 + 2 + 9
  EXPECT_EQ(f.line_size(), 16u);
}

}  // namespace
}  // namespace rangeamp::http
