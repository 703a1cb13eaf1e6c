#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/label_set.hpp"

namespace lcl {

/// A set of labels over a fixed finite universe of at most `64 * W` labels,
/// packed into `W` `uint64_t` words held inline (no heap allocation).
///
/// `LabelMask` (`W = 1`) is the dense representation behind the
/// round-elimination operator fill: the output alphabet of `R(Pi)`
/// (Definition 3.1) is the power set of `Sigma_out(Pi)`, and derived label
/// `i` is the base-label mask `i + 1`. The word count is a compile-time
/// parameter (W in {1, 2, 4, 8}, alphabets up to 512 labels), so every loop
/// below is a fixed-trip word-parallel AND/OR/ANDNOT the compiler unrolls
/// and vectorizes. Only `W = 1` has a production user; the wider
/// instantiations are exercised by `test_util_label_mask_w`.
///
/// `LabelSet` remains the general representation for unbounded universes;
/// the two agree operation-for-operation on every shared universe (fenced
/// exhaustively by `test_util_label_mask` and `test_util_label_mask_w`),
/// `hash()` matches `LabelSet::hash()` bit for bit, and `operator<` induces
/// the same total order - so the two are interchangeable as ordered or
/// hashed keys.
///
/// Error behaviour mirrors `LabelSet`: constructing over a universe larger
/// than `kMaxUniverse` throws `std::invalid_argument`, label arguments are
/// range-checked (`std::out_of_range`), and binary operations require both
/// operands to share the same universe size (`std::invalid_argument`).
template <std::size_t W>
class LabelMaskW {
  static_assert(W >= 1 && W <= 8, "supported mask tiers are 1..8 words");

 public:
  static constexpr std::size_t kWords = W;
  static constexpr std::size_t kMaxUniverse = 64 * W;

  using Words = std::array<std::uint64_t, W>;

  /// Creates an empty set over an empty universe.
  constexpr LabelMaskW() = default;

  /// Creates an empty set over a universe of `universe` labels.
  explicit LabelMaskW(std::size_t universe) : universe_(universe) {
    if (universe > kMaxUniverse) {
      std::ostringstream os;
      os << "LabelMask: universe of size " << universe << " exceeds the " << W
         << "-word limit of " << kMaxUniverse
         << " (use a wider tier or LabelSet)";
      throw std::invalid_argument(os.str());
    }
  }

  /// Creates a set over `universe` labels whose members are the set bits of
  /// `bits` (word 0; the upper words start empty). Throws
  /// `std::out_of_range` if a bit outside the universe is set.
  LabelMaskW(std::size_t universe, std::uint64_t bits)
      : LabelMaskW(universe) {
    if ((bits & ~word_cap(universe, 0)) != 0) {
      std::ostringstream os;
      os << "LabelMask: bits outside the universe of size " << universe;
      throw std::out_of_range(os.str());
    }
    bits_[0] = bits;
  }

  /// The full set `{0, .., universe-1}`.
  static LabelMaskW full(std::size_t universe) {
    LabelMaskW m(universe);
    for (std::size_t i = 0; i < W; ++i) m.bits_[i] = word_cap(universe, i);
    return m;
  }

  /// A singleton set `{label}` over `universe` labels.
  static LabelMaskW singleton(std::size_t universe, std::uint32_t label) {
    LabelMaskW m(universe);
    m.insert(label);
    return m;
  }

  /// Converts from the dynamic-bitset representation. Throws
  /// `std::invalid_argument` when the set's universe exceeds
  /// `kMaxUniverse`.
  static LabelMaskW from_label_set(const LabelSet& set) {
    LabelMaskW m(set.universe());  // throws on universe > 64 * W
    // The universe check above guarantees word_count() <= W; the && keeps
    // that bound visible to the optimizer (GCC 12 -Warray-bounds).
    for (std::size_t i = 0; i < W && i < set.word_count(); ++i) {
      m.bits_[i] = set.word(i);
    }
    return m;
  }

  /// Converts back to the dynamic-bitset representation (same universe,
  /// same members).
  LabelSet to_label_set() const {
    LabelSet set(universe_);
    for (const auto label : to_vector()) set.insert(label);
    return set;
  }

  std::size_t universe() const noexcept { return universe_; }

  /// The raw single word; bit `b` set iff label `b` is a member. Only the
  /// 1-word tier has *a* word - wider tiers expose `words()` / `word(i)`.
  std::uint64_t word() const noexcept
    requires(W == 1)
  {
    return bits_[0];
  }

  /// The raw words, least-significant first; bit `b` of word `b / 64` set
  /// iff label `b` is a member. Words at or above `ceil(universe / 64)` are
  /// always zero (class invariant).
  const Words& words() const noexcept { return bits_; }
  std::uint64_t word(std::size_t i) const { return bits_.at(i); }

  std::size_t size() const noexcept {
    std::size_t count = 0;
    for (const auto w : bits_) {
      count += static_cast<std::size_t>(std::popcount(w));
    }
    return count;
  }
  bool empty() const noexcept {
    std::uint64_t any = 0;
    for (const auto w : bits_) any |= w;
    return any == 0;
  }

  bool contains(std::uint32_t label) const {
    check_label(label);
    return (bits_[word_index(label)] >> (label % 64)) & 1;
  }
  void insert(std::uint32_t label) {
    check_label(label);
    bits_[word_index(label)] |= std::uint64_t{1} << (label % 64);
  }
  void erase(std::uint32_t label) {
    check_label(label);
    bits_[word_index(label)] &= ~(std::uint64_t{1} << (label % 64));
  }
  void clear() noexcept { bits_.fill(0); }

  /// True if `*this` is a subset of `other` (not necessarily proper).
  bool is_subset_of(const LabelMaskW& other) const {
    check_compatible(other);
    std::uint64_t excess = 0;
    for (std::size_t i = 0; i < W; ++i) excess |= bits_[i] & ~other.bits_[i];
    return excess == 0;
  }
  /// True if the two sets share at least one label.
  bool intersects(const LabelMaskW& other) const {
    check_compatible(other);
    std::uint64_t common = 0;
    for (std::size_t i = 0; i < W; ++i) common |= bits_[i] & other.bits_[i];
    return common != 0;
  }

  LabelMaskW union_with(const LabelMaskW& other) const {
    check_compatible(other);
    LabelMaskW out(universe_);
    for (std::size_t i = 0; i < W; ++i) out.bits_[i] = bits_[i] | other.bits_[i];
    return out;
  }
  LabelMaskW intersect_with(const LabelMaskW& other) const {
    check_compatible(other);
    LabelMaskW out(universe_);
    for (std::size_t i = 0; i < W; ++i) out.bits_[i] = bits_[i] & other.bits_[i];
    return out;
  }
  /// Word-parallel ANDNOT - the set difference `*this \ other`.
  LabelMaskW minus(const LabelMaskW& other) const {
    check_compatible(other);
    LabelMaskW out(universe_);
    for (std::size_t i = 0; i < W; ++i) {
      out.bits_[i] = bits_[i] & ~other.bits_[i];
    }
    return out;
  }
  /// `{0, .., universe-1} \ *this`.
  LabelMaskW complement() const {
    LabelMaskW out(universe_);
    for (std::size_t i = 0; i < W; ++i) {
      out.bits_[i] = ~bits_[i] & word_cap(universe_, i);
    }
    return out;
  }

  /// Labels in ascending order.
  std::vector<std::uint32_t> to_vector() const {
    std::vector<std::uint32_t> out;
    out.reserve(size());
    for (std::size_t i = 0; i < W; ++i) {
      std::uint64_t word = bits_[i];
      while (word != 0) {
        out.push_back(static_cast<std::uint32_t>(
            64 * i + static_cast<std::size_t>(std::countr_zero(word))));
        word &= word - 1;
      }
    }
    return out;
  }

  /// Smallest contained label. Throws `std::logic_error` on an empty set.
  std::uint32_t min() const {
    for (std::size_t i = 0; i < W; ++i) {
      if (bits_[i] != 0) {
        return static_cast<std::uint32_t>(
            64 * i + static_cast<std::size_t>(std::countr_zero(bits_[i])));
      }
    }
    throw std::logic_error("LabelMask::min on empty set");
  }

  /// Renders as `{a,b,c}` using `namer` for each label (or the label index
  /// itself when no namer is given). Identical to `LabelSet::to_string`.
  std::string to_string() const {
    return to_string([](std::uint32_t l) { return std::to_string(l); });
  }
  std::string to_string(
      const std::function<std::string(std::uint32_t)>& namer) const {
    std::ostringstream os;
    os << '{';
    bool first = true;
    for (const auto l : to_vector()) {
      if (!first) os << ',';
      os << namer(l);
      first = false;
    }
    os << '}';
    return os.str();
  }

  /// Total order matching the numeric order of the bit representation (the
  /// same order `LabelSet::operator<` induces on shared universes).
  bool operator<(const LabelMaskW& other) const {
    if (universe_ != other.universe_) return universe_ < other.universe_;
    for (std::size_t i = W; i-- > 0;) {
      if (bits_[i] != other.bits_[i]) return bits_[i] < other.bits_[i];
    }
    return false;
  }
  bool operator==(const LabelMaskW& other) const {
    return universe_ == other.universe_ && bits_ == other.bits_;
  }
  bool operator!=(const LabelMaskW& other) const { return !(*this == other); }

  /// Stable hash of the contents; equals `LabelSet::hash()` of the same set
  /// over the same universe - the fold runs over exactly the
  /// `ceil(universe / 64)` words a `LabelSet` stores, so the tier width
  /// never leaks into the hash.
  std::size_t hash() const noexcept {
    std::size_t h = universe_ * 0x9e3779b97f4a7c15ULL;
    const std::size_t words = (universe_ + 63) / 64;
    for (std::size_t i = 0; i < W && i < words; ++i) {
      h ^= static_cast<std::size_t>(bits_[i]) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
    }
    return h;
  }

  /// The word with exactly the universe's bits set (all-ones for 64).
  /// Single-word tier only; wider tiers use the per-word `word_cap`.
  static constexpr std::uint64_t universe_word(std::size_t universe) noexcept
    requires(W == 1)
  {
    return word_cap(universe, 0);
  }

  /// Bits of word `i` that lie inside a universe of the given size.
  static constexpr std::uint64_t word_cap(std::size_t universe,
                                          std::size_t i) noexcept {
    if (universe >= 64 * (i + 1)) return ~std::uint64_t{0};
    if (universe <= 64 * i) return 0;
    return (std::uint64_t{1} << (universe - 64 * i)) - 1;
  }

 private:
  // check_label guarantees label < universe_ <= 64 * W; the % W keeps that
  // bound provable for the optimizer (GCC emits -Warray-bounds for the
  // dead out-of-range path otherwise) and folds to an AND for the
  // power-of-two tiers.
  static constexpr std::size_t word_index(std::uint32_t label) noexcept {
    return (label / 64) % W;
  }

  void check_label(std::uint32_t label) const {
    if (label >= universe_) {
      std::ostringstream os;
      os << "LabelMask: label " << label << " outside universe of size "
         << universe_;
      throw std::out_of_range(os.str());
    }
  }
  void check_compatible(const LabelMaskW& other) const {
    if (universe_ != other.universe_) {
      std::ostringstream os;
      os << "LabelMask: operation on sets over different universes ("
         << universe_ << " vs " << other.universe_ << ")";
      throw std::invalid_argument(os.str());
    }
  }

  std::size_t universe_ = 0;
  Words bits_{};
};

/// The historical single-word mask: tier 1 of the template. Everything that
/// only ever sees alphabets <= 64 labels (the operator kernels' base
/// alphabets, cache signatures of small problems) stays on this alias.
using LabelMask = LabelMaskW<1>;

/// Invokes `visit(sub)` for every non-empty submask of `mask`, in strictly
/// decreasing numeric order, via the classic subset walk
/// `sub = (sub - 1) & mask` - `2^popcount(mask) - 1` visits, one subtract
/// and one mask each. This is the power-set enumeration primitive of the
/// round-elimination kernels: the derived alphabet of `R(Pi)` is exactly
/// the non-empty submasks of the full base word, and `g`-compatible derived
/// labels are exactly the non-empty submasks of `g_Pi(l)`.
template <typename Visit>
inline void for_each_nonempty_submask(std::uint64_t mask, Visit&& visit) {
  for (std::uint64_t sub = mask; sub != 0; sub = (sub - 1) & mask) {
    visit(sub);
  }
}

/// Multi-word generalization of the subset walk: visits every non-empty
/// submask of the `W`-word mask, in strictly decreasing numeric order of
/// the `64 * W`-bit integer the words spell (word 0 least significant).
/// The step is the same `sub = (sub - 1) & mask`, with the decrement
/// implemented as a borrow ripple across words - still O(W) per visit.
template <std::size_t W, typename Visit>
inline void for_each_nonempty_submask_words(
    const std::array<std::uint64_t, W>& mask, Visit&& visit) {
  std::array<std::uint64_t, W> sub = mask;
  const auto nonzero = [](const std::array<std::uint64_t, W>& words) {
    std::uint64_t any = 0;
    for (const auto w : words) any |= w;
    return any != 0;
  };
  while (nonzero(sub)) {
    visit(static_cast<const std::array<std::uint64_t, W>&>(sub));
    // sub = (sub - 1) & mask: borrow ripples through zero words.
    for (std::size_t i = 0; i < W; ++i) {
      if (sub[i] != 0) {
        sub[i] -= 1;
        break;
      }
      sub[i] = ~std::uint64_t{0};
    }
    for (std::size_t i = 0; i < W; ++i) sub[i] &= mask[i];
  }
}

/// Submask walk over a `LabelMaskW`: visits each non-empty submask as a
/// mask over the same universe, in strictly decreasing `operator<` order.
template <std::size_t W, typename Visit>
inline void for_each_nonempty_submask(const LabelMaskW<W>& mask,
                                      Visit&& visit) {
  for_each_nonempty_submask_words<W>(
      mask.words(), [&](const std::array<std::uint64_t, W>& words) {
        LabelMaskW<W> sub(mask.universe());
        for (std::size_t i = 0; i < W; ++i) {
          std::uint64_t word = words[i];
          while (word != 0) {
            sub.insert(static_cast<std::uint32_t>(
                64 * i + static_cast<std::size_t>(std::countr_zero(word))));
            word &= word - 1;
          }
        }
        visit(sub);
      });
}

}  // namespace lcl

template <std::size_t W>
struct std::hash<lcl::LabelMaskW<W>> {
  std::size_t operator()(const lcl::LabelMaskW<W>& m) const noexcept {
    return m.hash();
  }
};
