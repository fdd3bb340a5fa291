// nwlb-lint: hot-path
//
// Open-addressing hash map with 64-bit keys for per-packet NIDS state.
//
// The session tracker and scan detector sit on the per-packet path of
// every NIDS node; node-based containers (std::unordered_map of
// std::unordered_set) pay one or two heap allocations per *new flow*,
// which at replayed-traffic rates is an allocation every few microseconds.
// U64FlatMap stores {key, value, tag} triplets in one contiguous slot
// array with linear probing, so the steady-state observe() is a mixed
// hash, a handful of sequential probes in one cache line neighborhood,
// and no allocation at all; growth doubles the slot array (amortized, and
// avoidable entirely via reserve()).  A slot is in use when its tag equals
// the map's current epoch, so clear() bumps the epoch instead of touching
// the slots: a cleared table costs nothing until it is written again.
//
// Values must be trivial (they live in relocatable slots and are never
// destructed individually).  Iteration order is the slot order, which
// depends on insertion history — callers that need deterministic output
// sort, exactly as they had to with unordered_map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace nwlb::util {

/// Stateless 64-bit mixer (SplitMix64 finalizer): full-avalanche, so
/// sequential keys (session ids, packed address pairs) spread uniformly.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename V>
class U64FlatMap {
  static_assert(std::is_trivially_destructible_v<V> && std::is_trivially_copyable_v<V>,
                "U64FlatMap stores only trivial values");

 public:
  U64FlatMap() = default;

  /// Pre-sizes for `expected` keys without rehashing on the way there.
  void reserve(std::size_t expected) {
    std::size_t needed = kMinSlots;
    // Grow-threshold is 7/8 load; size for that with headroom.
    while (needed * 7 / 8 < expected + 1) needed <<= 1;
    if (needed > slots_.size()) rehash(needed);
  }

  /// Value for `key`, inserting a value-initialized one if absent.
  V& operator[](std::uint64_t key) {
    if (size_ + 1 > slots_.size() * 7 / 8) rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    Slot& slot = probe(slots_, key, epoch_);
    if (slot.tag != epoch_) {
      slot.tag = epoch_;
      slot.key = key;
      slot.value = V();
      ++size_;
    }
    return slot.value;
  }

  /// Pointer to the value for `key`, or nullptr when absent.
  const V* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = probe(const_cast<std::vector<Slot>&>(slots_), key, epoch_);
    return slot.tag == epoch_ ? &slot.value : nullptr;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Visits every (key, value) pair in slot order (not deterministic
  /// across different insertion histories — sort downstream).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_)
      if (slot.tag == epoch_) fn(slot.key, slot.value);
  }

  /// Empties the map in O(1), keeping its capacity.
  void clear() {
    size_ = 0;
    if (++epoch_ != 0) return;
    // The epoch wrapped: retag every slot as free, once per 2^32 clears.
    for (Slot& slot : slots_) slot.tag = 0;
    epoch_ = 1;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    V value{};
    std::uint32_t tag = 0;  // In use iff equal to the map's epoch_ (never 0).
  };

  static constexpr std::size_t kMinSlots = 16;

  /// First slot holding `key` or the first free slot of its probe chain.
  /// The load factor cap guarantees a free slot exists.
  static Slot& probe(std::vector<Slot>& slots, std::uint64_t key, std::uint32_t epoch) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    while (slots[i].tag == epoch && slots[i].key != key) i = (i + 1) & mask;
    return slots[i];
  }

  void rehash(std::size_t new_slots) {
    std::vector<Slot> next(new_slots);
    for (const Slot& slot : slots_) {
      if (slot.tag != epoch_) continue;
      Slot& target = probe(next, slot.key, epoch_);
      target = slot;
    }
    slots_.swap(next);
  }

  std::vector<Slot> slots_;  // Power-of-two size (or empty until first use).
  std::size_t size_ = 0;
  std::uint32_t epoch_ = 1;  // Fresh slots carry tag 0, so start at 1.
};

}  // namespace nwlb::util
