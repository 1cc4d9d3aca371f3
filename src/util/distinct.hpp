// Flat distinct-value counter for hot per-slot cardinality features.
//
// The online monitor needs exactly three operations per 5-minute slot of
// every tracked destination: insert a key, read the distinct count, reset
// for the next slot. std::unordered_map paid a node allocation per new key
// and a rehash walk per clear — the two hottest lines of the whole flow
// path under profiling. This is the minimal replacement: open addressing
// over a flat array (no per-key allocation, linear probing on a mixed
// hash), and O(1) clear via slot versioning — stale entries are simply
// left behind with an old version tag instead of being memset away, so a
// destination that once saw a 100k-source burst does not pay for that
// burst on every later slot boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bw::util {

/// Insert-only distinct counter over unsigned integral keys. Not a general
/// set: no erase, no iteration, no lookup — size() and clear() only.
/// `Version` is the clear() tag; a narrow one lets tests reach its wrap.
template <typename T, typename Version = std::uint32_t>
class DistinctCounter {
 public:
  /// True the first time `key` is inserted since the last clear().
  bool insert(T key) {
    if (slots_.empty()) slots_.resize(kInitialCapacity);
    if (size_ * 8 >= slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix(key) & mask;
    while (true) {
      Slot& s = slots_[i];
      if (s.version != version_) {
        s.key = key;
        s.version = version_;
        ++size_;
        return true;
      }
      if (s.key == key) return false;
      i = (i + 1) & mask;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// O(1): entries of older versions read as empty. The table keeps its
  /// capacity — slot features are periodic, so the next slot of a busy
  /// destination reuses the same array without a rehash.
  void clear() noexcept {
    ++version_;
    size_ = 0;
    if (version_ == 0) {  // wrapped: stale tags could alias; really wipe
      slots_.assign(slots_.size(), Slot{});
      version_ = 1;
    }
  }

 private:
  struct Slot {
    T key{};
    Version version{0};
  };

  static constexpr std::size_t kInitialCapacity = 16;  // power of two

  [[nodiscard]] static std::size_t mix(T key) noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(key);
    h *= 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.version != version_) continue;
      std::size_t i = mix(s.key) & mask;
      while (slots_[i].version == version_) i = (i + 1) & mask;
      slots_[i].key = s.key;
      slots_[i].version = version_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_{0};
  Version version_{1};  // 0 marks never-used slots
};

}  // namespace bw::util
