#include "net/transcript.h"

#include <cctype>

namespace rangeamp::net {
namespace {

void append_escaped(std::string_view raw, std::string& out) {
  for (const char c : raw) {
    if (std::isprint(static_cast<unsigned char>(c))) {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
}

}  // namespace

std::string Transcript::render(std::size_t body_preview) const {
  std::string out;
  for (const TranscriptEntry& e : entries_) {
    out += "=== " + e.segment + " ===\n";
    out += "> " + std::string{http::method_name(e.request.method)} + " " +
           e.request.target + " " + e.request.version + "\n";
    for (const auto f : e.request.headers) {
      out.append("> ").append(f.name).append(": ").append(f.value).append("\n");
    }
    if (e.request.body.size() > 0) {
      out += "> [" + std::to_string(e.request.body.size()) + " body bytes]\n";
    }
    out += "\n";
    out += "< " + e.response.version + " " + std::to_string(e.response.status) +
           " " + std::string{http::reason_phrase(e.response.status)} + "\n";
    for (const auto f : e.response.headers) {
      out.append("< ").append(f.name).append(": ").append(f.value).append("\n");
    }
    const std::uint64_t body = e.response.body.size();
    out += "< [" + std::to_string(body) + " body bytes";
    if (body_preview > 0 && body > 0) {
      const std::uint64_t take = std::min<std::uint64_t>(body, body_preview);
      out += ": ";
      append_escaped(e.response.body.slice(0, take).materialize(), out);
      if (take < body) out += "...";
    }
    out += "]\n\n";
  }
  return out;
}

}  // namespace rangeamp::net
