// Flat hash index from a 64-bit key to a dense 32-bit id.
//
// The streaming kernels keep their state in dense vectors (hosts, events'
// collateral cells, top-K counters, prefix tracks) and need one thing from
// a hash table: find the slot of a key, or claim the next slot. A node-
// based std::unordered_map paid a heap node per key and a modulo plus a
// pointer chase per probe on the per-flow path. This is the minimal
// replacement: linear probing over one array of (key, id) pairs,
// Fibonacci hashing on the high bits, and backward-shift erase so no
// tombstones accumulate under SpaceSaving's evict-and-replace churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bw::util {

class FlatIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// The id of `key`, or kNone.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const noexcept {
    if (slots_.empty()) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.key == key) return s.id;
    }
  }

  /// The id of `key`, storing `id` for it first when it is absent; the
  /// flag tells which. `id` must not be kNone.
  std::pair<std::uint32_t, bool> try_emplace(std::uint64_t key,
                                             std::uint32_t id) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.id == kNone) {
        s = {key, id};
        ++size_;
        return {id, true};
      }
      if (s.key == key) return {s.id, false};
    }
  }

  /// Remove `key` if present. Later entries of its probe run shift back
  /// into the hole, so every lookup still stops at the first empty slot.
  void erase(std::uint64_t key) noexcept {
    if (slots_.empty()) return;
    std::size_t hole = home(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].id == kNone) return;
      if (slots_[hole].key == key) break;
    }
    for (std::size_t i = (hole + 1) & mask_; slots_[i].id != kNone;
         i = (i + 1) & mask_) {
      // Move slots_[i] into the hole unless its home lies cyclically in
      // (hole, i] — then the hole is not on its probe path.
      const std::size_t h = home(slots_[i].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].id = kNone;
    --size_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t key{0};
    std::uint32_t id{kNone};
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.id == kNone) continue;
      std::size_t i = home(s.key);
      while (slots_[i].id != kNone) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_{0};
  unsigned shift_{64};
  std::size_t size_{0};
};

}  // namespace bw::util
