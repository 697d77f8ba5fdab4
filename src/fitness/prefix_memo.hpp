// Fixed-capacity memo of LSTM states keyed by the prefix that produced them.
//
// An LSTM's (h, c) after k steps is a pure function of the weights and the
// first k inputs. When the caller can name those inputs with a 64-bit key
// (a chained fingerprint of the prefix), a later sequence that starts with
// the same prefix can load the stored state and run only its remaining
// steps, with a bitwise-identical result. NnffModel keeps two of these: one
// over program-step prefixes (stepLstm) and one over trace-token prefixes
// (traceLstm).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace netsyn::fitness {

class PrefixStateMemo {
 public:
  /// Stored states before the memo clears itself. 1024 states of a
  /// 32-wide LSTM take 256 KB of arena; a GA generation's new prefixes fit
  /// a few times over, and older ones are recomputed at worst.
  static constexpr std::size_t kCapacity = 1024;

  /// The table is allocated by the first insert, so a model that never
  /// scores through this LSTM pays nothing; the arena grows with the
  /// number of stored states, up to kCapacity of them.
  explicit PrefixStateMemo(std::size_t hidden) : hidden_(hidden) {}

  /// [h | c] (2 * hidden floats) stored under `key`, or nullptr. The
  /// pointer stays valid until the next insert or clear.
  const float* find(std::uint64_t key) const {
    if (count_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & kMask) {
      const Entry& e = table_[i];
      if (e.slot == 0) return nullptr;
      if (e.key == key) return arena_.data() + (e.slot - 1) * 2 * hidden_;
    }
  }

  /// Stores [h | c] under `key`; a full memo is cleared first.
  void insert(std::uint64_t key, const float* h, const float* c) {
    if (table_.empty()) table_.resize(kTableSize);
    if (count_ >= capacity_) clear();
    std::size_t i = home(key);
    while (table_[i].slot != 0 && table_[i].key != key) i = (i + 1) & kMask;
    if (table_[i].slot == 0) {
      table_[i] = {key, ++count_};
      // After a clear the arena keeps its size and slots are reused.
      if (arena_.size() < count_ * 2 * hidden_)
        arena_.resize(count_ * 2 * hidden_);
    }
    float* dst = arena_.data() + (table_[i].slot - 1) * 2 * hidden_;
    std::copy(h, h + hidden_, dst);
    std::copy(c, c + hidden_, dst + hidden_);
  }

  void clear() {
    std::fill(table_.begin(), table_.end(), Entry{});
    count_ = 0;
  }

  /// Test hook: clear at `cap` (clamped to [1, kCapacity]) states instead.
  void setCapacity(std::size_t cap) {
    capacity_ = std::clamp<std::size_t>(cap, 1, kCapacity);
    clear();
  }

  std::size_t size() const { return count_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::size_t slot = 0;  ///< 1-based arena slot; 0 marks an empty cell
  };
  /// Open addressing at load factor <= 1/4 keeps probe chains short.
  static constexpr std::size_t kTableSize = 4 * kCapacity;
  static constexpr std::size_t kMask = kTableSize - 1;
  static_assert((kTableSize & kMask) == 0, "table size must be a power of 2");

  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  static std::size_t home(std::uint64_t key) {
    constexpr unsigned kBits = 12;  // log2(kTableSize)
    static_assert((std::size_t{1} << kBits) == kTableSize);
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - kBits));
  }

  std::size_t hidden_;
  std::size_t capacity_ = kCapacity;
  std::size_t count_ = 0;
  std::vector<float> arena_;
  std::vector<Entry> table_;
};

}  // namespace netsyn::fitness
