// Counting replacement of the global operator new/delete, linked into the
// traced binary and the tests only.  Every block carries a 16-byte header
// with its size and the tag of the benchmark span it was charged to, so a
// free can be credited back to that span while it is still open.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "spans.h"

namespace {

struct alignas(16) Header {
  std::size_t size;
  std::uint64_t tag;
};
static_assert(sizeof(Header) == 16, "header must keep 16-byte alignment");

void* allocate(std::size_t size) noexcept {
  void* raw = std::malloc(sizeof(Header) + size);
  if (raw == nullptr) return nullptr;
  auto* header = static_cast<Header*>(raw);
  header->size = size;
  header->tag = perfbench::SpanLog::on_alloc(size);
  return header + 1;
}

void* allocate_or_throw(std::size_t size) {
  void* p = allocate(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  Header* header = static_cast<Header*>(p) - 1;
  perfbench::SpanLog::on_free(header->tag, header->size);
  std::free(header);
}

}  // namespace

void* operator new(std::size_t size) { return allocate_or_throw(size); }
void* operator new[](std::size_t size) { return allocate_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p); }
