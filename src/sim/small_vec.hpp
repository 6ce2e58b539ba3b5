// Small-buffer-optimized vector for listener lists.
//
// Nearly every `sim::Wire` in the board model has one or two listeners
// (the forwarding connection plus at most one observer), yet each
// `std::vector` puts them behind a heap allocation made during wiring and
// chased on every edge.  `SmallVec<T, N>` stores the first N elements
// inline in the owning object - zero allocations for the common fan-out,
// one cache line fewer per edge delivery - and spills to the heap only
// when a net genuinely fans out wider.
//
// Deliberately minimal: move-only, append/index/iterate/remove_if, no
// insert/erase-at, no shrink.  Exactly what the wire delivery loop needs.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace offramps::sim {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");

 public:
  SmallVec() = default;

  SmallVec(SmallVec&& o) noexcept { steal(std::move(o)); }

  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      destroy_all();
      steal(std::move(o));
    }
    return *this;
  }

  SmallVec(const SmallVec&) = delete;
  SmallVec& operator=(const SmallVec&) = delete;

  ~SmallVec() { destroy_all(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void push_back(T v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* slot = data() + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void clear() {
    std::destroy_n(data(), size_);
    size_ = 0;
  }

  /// Removes every element matching `pred`, preserving the order of the
  /// survivors (the listener-FIFO guarantee).  Returns the removed count.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    T* const first = data();
    T* const last = first + size_;
    T* out = first;
    for (T* p = first; p != last; ++p) {
      if (!pred(*p)) {
        if (out != p) *out = std::move(*p);
        ++out;
      }
    }
    const auto removed = static_cast<std::size_t>(last - out);
    std::destroy_n(out, removed);
    size_ -= removed;
    return removed;
  }

 private:
  T* data() { return heap_ != nullptr ? heap_ : inline_ptr(); }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_ptr(); }
  T* inline_ptr() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inline_ptr() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  static T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T),
                                          std::align_val_t{alignof(T)}));
  }
  static void deallocate(T* p) {
    ::operator delete(p, std::align_val_t{alignof(T)});
  }

  void grow() {
    const std::size_t new_cap = cap_ * 2;
    T* fresh = allocate(new_cap);
    T* const src = data();
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(src[i]));
    }
    std::destroy_n(src, size_);
    if (heap_ != nullptr) deallocate(heap_);
    heap_ = fresh;
    cap_ = new_cap;
  }

  void destroy_all() {
    std::destroy_n(data(), size_);
    if (heap_ != nullptr) deallocate(heap_);
    heap_ = nullptr;
    size_ = 0;
    cap_ = N;
  }

  void steal(SmallVec&& o) {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      size_ = o.size_;
      cap_ = o.cap_;
      o.heap_ = nullptr;
      o.size_ = 0;
      o.cap_ = N;
    } else {
      heap_ = nullptr;
      cap_ = N;
      size_ = o.size_;
      for (std::size_t i = 0; i < size_; ++i) {
        ::new (static_cast<void*>(inline_ptr() + i))
            T(std::move(o.inline_ptr()[i]));
      }
      std::destroy_n(o.inline_ptr(), o.size_);
      o.size_ = 0;
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace offramps::sim
