#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/label_set.hpp"

namespace lcl {

/// A set of labels over a fixed finite universe of at most 64 labels,
/// packed into one `uint64_t` word (no heap allocation).
///
/// `LabelMask` is the dense representation behind the round-elimination
/// operator fill: the output alphabet of `R(Pi)` (Definition 3.1) is the
/// power set of `Sigma_out(Pi)`, and derived label `i` is the base-label
/// mask `i + 1`.
///
/// `LabelSet` remains the general representation for unbounded universes;
/// the two agree operation-for-operation on every shared universe (fenced
/// exhaustively by `test_util_label_mask`), `hash()` matches
/// `LabelSet::hash()` bit for bit, and `operator<` induces the same total
/// order - so the two are interchangeable as ordered or hashed keys.
///
/// Error behaviour mirrors `LabelSet`: constructing over a universe larger
/// than `kMaxUniverse` throws `std::invalid_argument`, label arguments are
/// range-checked (`std::out_of_range`), and binary operations require both
/// operands to share the same universe size (`std::invalid_argument`).
class LabelMask {
 public:
  static constexpr std::size_t kMaxUniverse = 64;

  /// Creates an empty set over an empty universe.
  constexpr LabelMask() = default;

  /// Creates an empty set over a universe of `universe` labels.
  explicit LabelMask(std::size_t universe) : universe_(universe) {
    if (universe > kMaxUniverse) {
      std::ostringstream os;
      os << "LabelMask: universe of size " << universe
         << " exceeds the one-word limit of " << kMaxUniverse
         << " (use LabelSet)";
      throw std::invalid_argument(os.str());
    }
  }

  /// Creates a set over `universe` labels whose members are the set bits of
  /// `bits`. Throws `std::out_of_range` if a bit outside the universe is
  /// set.
  LabelMask(std::size_t universe, std::uint64_t bits) : LabelMask(universe) {
    if ((bits & ~universe_word(universe)) != 0) {
      std::ostringstream os;
      os << "LabelMask: bits outside the universe of size " << universe;
      throw std::out_of_range(os.str());
    }
    bits_ = bits;
  }

  /// The full set `{0, .., universe-1}`.
  static LabelMask full(std::size_t universe) {
    LabelMask m(universe);
    m.bits_ = universe_word(universe);
    return m;
  }

  /// A singleton set `{label}` over `universe` labels.
  static LabelMask singleton(std::size_t universe, std::uint32_t label) {
    LabelMask m(universe);
    m.insert(label);
    return m;
  }

  /// Converts from the dynamic-bitset representation. Throws
  /// `std::invalid_argument` when the set's universe exceeds
  /// `kMaxUniverse`.
  static LabelMask from_label_set(const LabelSet& set) {
    LabelMask m(set.universe());  // throws on universe > 64
    if (set.word_count() > 0) m.bits_ = set.word(0);
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

  /// The raw word; bit `b` set iff label `b` is a member.
  std::uint64_t word() const noexcept { return bits_; }

  std::size_t size() const noexcept {
    return static_cast<std::size_t>(std::popcount(bits_));
  }
  bool empty() const noexcept { return bits_ == 0; }

  bool contains(std::uint32_t label) const {
    check_label(label);
    return (bits_ >> label) & 1;
  }
  void insert(std::uint32_t label) {
    check_label(label);
    bits_ |= std::uint64_t{1} << label;
  }
  void erase(std::uint32_t label) {
    check_label(label);
    bits_ &= ~(std::uint64_t{1} << label);
  }
  void clear() noexcept { bits_ = 0; }

  /// True if `*this` is a subset of `other` (not necessarily proper).
  bool is_subset_of(const LabelMask& other) const {
    check_compatible(other);
    return (bits_ & ~other.bits_) == 0;
  }
  /// True if the two sets share at least one label.
  bool intersects(const LabelMask& other) const {
    check_compatible(other);
    return (bits_ & other.bits_) != 0;
  }

  LabelMask union_with(const LabelMask& other) const {
    check_compatible(other);
    return with_bits(bits_ | other.bits_);
  }
  LabelMask intersect_with(const LabelMask& other) const {
    check_compatible(other);
    return with_bits(bits_ & other.bits_);
  }
  /// ANDNOT - the set difference `*this \ other`.
  LabelMask minus(const LabelMask& other) const {
    check_compatible(other);
    return with_bits(bits_ & ~other.bits_);
  }
  /// `{0, .., universe-1} \ *this`.
  LabelMask complement() const {
    return with_bits(~bits_ & universe_word(universe_));
  }

  /// Labels in ascending order.
  std::vector<std::uint32_t> to_vector() const {
    std::vector<std::uint32_t> out;
    out.reserve(size());
    for (std::uint64_t word = bits_; word != 0; word &= word - 1) {
      out.push_back(static_cast<std::uint32_t>(std::countr_zero(word)));
    }
    return out;
  }

  /// Smallest contained label. Throws `std::logic_error` on an empty set.
  std::uint32_t min() const {
    if (bits_ == 0) throw std::logic_error("LabelMask::min on empty set");
    return static_cast<std::uint32_t>(std::countr_zero(bits_));
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
  bool operator<(const LabelMask& other) const {
    if (universe_ != other.universe_) return universe_ < other.universe_;
    return bits_ < other.bits_;
  }
  bool operator==(const LabelMask& other) const {
    return universe_ == other.universe_ && bits_ == other.bits_;
  }
  bool operator!=(const LabelMask& other) const { return !(*this == other); }

  /// Stable hash of the contents; equals `LabelSet::hash()` of the same set
  /// over the same universe (a `LabelSet` stores no word for an empty
  /// universe, so none is folded in then).
  std::size_t hash() const noexcept {
    std::size_t h = universe_ * 0x9e3779b97f4a7c15ULL;
    if (universe_ > 0) {
      h ^= static_cast<std::size_t>(bits_) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
    }
    return h;
  }

  /// The word with exactly the universe's bits set (all-ones for 64).
  static constexpr std::uint64_t universe_word(std::size_t universe) noexcept {
    return universe >= 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << universe) - 1;
  }

 private:
  LabelMask with_bits(std::uint64_t bits) const {
    LabelMask out;
    out.universe_ = universe_;
    out.bits_ = bits;
    return out;
  }

  void check_label(std::uint32_t label) const {
    if (label >= universe_) {
      std::ostringstream os;
      os << "LabelMask: label " << label << " outside universe of size "
         << universe_;
      throw std::out_of_range(os.str());
    }
  }
  void check_compatible(const LabelMask& other) const {
    if (universe_ != other.universe_) {
      std::ostringstream os;
      os << "LabelMask: operation on sets over different universes ("
         << universe_ << " vs " << other.universe_ << ")";
      throw std::invalid_argument(os.str());
    }
  }

  std::size_t universe_ = 0;
  std::uint64_t bits_ = 0;
};

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

}  // namespace lcl

template <>
struct std::hash<lcl::LabelMask> {
  std::size_t operator()(const lcl::LabelMask& m) const noexcept {
    return m.hash();
  }
};
