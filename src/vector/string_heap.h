// Arena storage for variable-width string data.
//
// X100 vectors of strings hold fixed-width StrRef entries pointing into a
// per-batch heap. The heap is bump-allocated and reset wholesale when the
// producing operator refills its batch — no per-string frees.
#ifndef X100_VECTOR_STRING_HEAP_H_
#define X100_VECTOR_STRING_HEAP_H_

#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace x100 {

class StringHeap {
 public:
  explicit StringHeap(size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  /// Copies `sv` into the heap and returns a StrRef to the copy.
  StrRef Add(std::string_view sv) {
    if (sv.empty()) return StrRef("", 0);
    char* dst = Allocate(sv.size());
    std::memcpy(dst, sv.data(), sv.size());
    return StrRef(dst, static_cast<uint32_t>(sv.size()));
  }

  /// Reserves `n` writable bytes (for functions building strings in place,
  /// e.g. concat / upper). Caller wraps the result in a StrRef.
  char* Allocate(size_t n) {
    // Even a zero-byte reservation gets a chunk, so the result is never
    // null: decoders memcpy zero bytes into it.
    if (cur_ == nullptr || used_ + n > cur_size_) Grow(n);
    char* p = cur_ + used_;
    used_ += n;
    bytes_allocated_ += n;
    return p;
  }

  /// Drops all strings; keeps the first chunk for reuse.
  void Reset() {
    if (chunks_.size() > 1) {
      chunks_.resize(1);
    }
    if (!chunks_.empty()) {
      cur_ = chunks_[0].get();
      cur_size_ = chunk_bytes_;
    } else {
      cur_ = nullptr;
      cur_size_ = 0;
    }
    used_ = 0;
    bytes_allocated_ = 0;
  }

  size_t bytes_allocated() const { return bytes_allocated_; }

 private:
  void Grow(size_t min_bytes) {
    size_t sz = chunk_bytes_;
    while (sz < min_bytes) sz *= 2;
    chunks_.push_back(std::make_unique<char[]>(sz));
    cur_ = chunks_.back().get();
    cur_size_ = sz;
    used_ = 0;
  }

  size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  size_t cur_size_ = 0;
  size_t used_ = 0;
  size_t bytes_allocated_ = 0;
};

}  // namespace x100

#endif  // X100_VECTOR_STRING_HEAP_H_
