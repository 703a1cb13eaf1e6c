#include "util/label_mask.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/label_set.hpp"

namespace lcl {
namespace {

TEST(LabelMask, BasicMembership) {
  LabelMask m(5);
  EXPECT_EQ(m.universe(), 5u);
  EXPECT_TRUE(m.empty());
  m.insert(0);
  m.insert(3);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(0));
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(3));
  EXPECT_EQ(m.word(), 0b01001u);
  m.erase(0);
  EXPECT_EQ(m.to_vector(), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(m.min(), 3u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_THROW(m.min(), std::logic_error);
}

TEST(LabelMask, RangeChecks) {
  LabelMask m(3);
  EXPECT_THROW(m.insert(3), std::out_of_range);
  EXPECT_THROW(m.contains(7), std::out_of_range);
  EXPECT_THROW(m.erase(100), std::out_of_range);
  EXPECT_THROW(LabelMask(3, 0b1000), std::out_of_range);
  EXPECT_THROW(LabelMask(65), std::invalid_argument);
  EXPECT_THROW(LabelMask::full(2).is_subset_of(LabelMask::full(3)),
               std::invalid_argument);
}

TEST(LabelMask, FullAndSingletonAndComplement) {
  EXPECT_EQ(LabelMask::full(6).word(), 0b111111u);
  EXPECT_EQ(LabelMask::full(0).word(), 0u);
  EXPECT_EQ(LabelMask::singleton(6, 4).word(), 0b010000u);
  EXPECT_EQ(LabelMask(6, 0b010101).complement().word(), 0b101010u);
  EXPECT_EQ(LabelMask::universe_word(64), ~std::uint64_t{0});
  EXPECT_EQ(LabelMask::universe_word(0), 0u);
}

// The dense representation must agree with `LabelSet` on *every* operation
// over *every* pair of subsets, for all universes k <= 6. That is
// sum_k (2^k)^2 = 5461 pairs - small enough to brute-force, and the brute
// force is exactly the interchangeability contract the RE kernels rely on.
TEST(LabelMask, ExhaustiveCrossCheckAgainstLabelSetUpToK6) {
  for (std::size_t k = 0; k <= 6; ++k) {
    const std::uint64_t count = std::uint64_t{1} << k;
    for (std::uint64_t a = 0; a < count; ++a) {
      const LabelMask ma(k, a);
      const LabelSet sa = ma.to_label_set();
      ASSERT_EQ(LabelMask::from_label_set(sa), ma);
      ASSERT_EQ(sa.size(), ma.size());
      ASSERT_EQ(sa.empty(), ma.empty());
      ASSERT_EQ(sa.to_vector(), ma.to_vector());
      ASSERT_EQ(sa.to_string(), ma.to_string());
      ASSERT_EQ(sa.hash(), ma.hash()) << "k=" << k << " a=" << a;
      for (std::uint32_t l = 0; l < k; ++l) {
        ASSERT_EQ(sa.contains(l), ma.contains(l));
      }
      for (std::uint64_t b = 0; b < count; ++b) {
        const LabelMask mb(k, b);
        const LabelSet sb = mb.to_label_set();
        ASSERT_EQ(sa.is_subset_of(sb), ma.is_subset_of(mb));
        ASSERT_EQ(sa.intersects(sb), ma.intersects(mb));
        ASSERT_EQ(sa.union_with(sb), ma.union_with(mb).to_label_set());
        ASSERT_EQ(sa.intersect_with(sb), ma.intersect_with(mb).to_label_set());
        ASSERT_EQ(sa.minus(sb), ma.minus(mb).to_label_set());
        ASSERT_EQ(sa == sb, ma == mb);
        ASSERT_EQ(sa < sb, ma < mb) << "k=" << k << " a=" << a << " b=" << b;
      }
    }
  }
}

// The subset walk must visit exactly the 2^popcount(mask) - 1 non-empty
// submasks, each once, in strictly decreasing order. The k=6 full word is
// the 2^6 - 1 boundary named in the kernel docs.
TEST(LabelMask, SubsetWalkVisitsEveryNonemptySubmaskOnce) {
  const std::uint64_t masks[] = {0b111111, 0b101101, 0b1, 0b100000, 0};
  for (const std::uint64_t mask : masks) {
    std::vector<std::uint64_t> visited;
    for_each_nonempty_submask(mask, [&](std::uint64_t sub) {
      visited.push_back(sub);
    });
    const int bits = std::popcount(mask);
    ASSERT_EQ(visited.size(), (std::uint64_t{1} << bits) - 1) << mask;
    std::set<std::uint64_t> unique(visited.begin(), visited.end());
    ASSERT_EQ(unique.size(), visited.size());
    for (std::size_t i = 0; i + 1 < visited.size(); ++i) {
      ASSERT_GT(visited[i], visited[i + 1]);  // strictly decreasing
    }
    for (const std::uint64_t sub : visited) {
      ASSERT_NE(sub, 0u);
      ASSERT_EQ(sub & ~mask, 0u);  // genuinely a submask
    }
  }
}

// k=64 exercises the full-word edge case, where `(1 << 64)` would be UB:
// universe_word must saturate to all-ones and complement/full must agree.
TEST(LabelMask, FullWordUniverse) {
  LabelMask m = LabelMask::full(64);
  EXPECT_EQ(m.size(), 64u);
  EXPECT_EQ(m.word(), ~std::uint64_t{0});
  EXPECT_TRUE(m.contains(63));
  EXPECT_TRUE(m.complement().empty());
  EXPECT_EQ(LabelMask(64).complement(), m);
  m.erase(63);
  EXPECT_EQ(m.size(), 63u);
  EXPECT_EQ(m.complement(), LabelMask::singleton(64, 63));

  // Round-trip and hash parity hold at the boundary too.
  const LabelSet s = m.to_label_set();
  EXPECT_EQ(s.size(), 63u);
  EXPECT_EQ(LabelMask::from_label_set(s), m);
  EXPECT_EQ(s.hash(), m.hash());
  EXPECT_THROW(m.insert(64), std::out_of_range);
}

TEST(LabelMask, DefaultIsEmptyUniverse) {
  const LabelMask m;
  EXPECT_EQ(m.universe(), 0u);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.hash(), LabelSet().hash());
  EXPECT_EQ(m, LabelMask(0, 0));
}

// The LabelMaskWTest cases keep the names they had when the mask came in
// several word widths; they now pin the one-word mask.

TEST(LabelMaskWTest, SingleWordTierStaysBitCompatible) {
  // The raw-word accessors the kernels build on.
  const LabelMask m(10, 0b1011);
  EXPECT_EQ(m.word(), 0b1011u);
  EXPECT_EQ(LabelMask::universe_word(10), (std::uint64_t{1} << 10) - 1);
  EXPECT_EQ(LabelMask::universe_word(64), ~std::uint64_t{0});
  EXPECT_EQ(LabelMask::from_label_set(m.to_label_set()).word(), m.word());
}

TEST(LabelMaskWTest, WordCapCoversPartialWords) {
  // universe_word caps the word at exactly the universe's low bits, up to
  // and including the last partial width before the full word.
  for (const std::size_t universe : {1u, 10u, 33u, 63u}) {
    SCOPED_TRACE("universe=" + std::to_string(universe));
    const std::uint64_t cap = LabelMask::universe_word(universe);
    EXPECT_EQ(std::popcount(cap), static_cast<int>(universe));
    EXPECT_EQ(cap >> universe, 0u);
    const LabelMask full = LabelMask::full(universe);
    EXPECT_EQ(full.size(), universe);
    EXPECT_TRUE(full.contains(static_cast<std::uint32_t>(universe - 1)));
    EXPECT_EQ(full.complement().size(), 0u);
    EXPECT_EQ(LabelMask(universe).complement(), full);
  }
}

TEST(LabelMaskWTest, ErrorBehaviourMirrorsLabelSet) {
  // Every error LabelMask raises, LabelSet raises with the same type.
  EXPECT_THROW(LabelMask(65), std::invalid_argument);
  EXPECT_NO_THROW(LabelMask(64));
  LabelMask m(40);
  LabelSet s(40);
  EXPECT_THROW(m.contains(40), std::out_of_range);
  EXPECT_THROW(s.contains(40), std::out_of_range);
  EXPECT_THROW(m.insert(60), std::out_of_range);
  EXPECT_THROW(s.insert(60), std::out_of_range);
  EXPECT_THROW(m.erase(1000), std::out_of_range);
  EXPECT_THROW(s.erase(1000), std::out_of_range);
  const LabelMask other(39);
  const LabelSet other_set(39);
  EXPECT_THROW((void)m.is_subset_of(other), std::invalid_argument);
  EXPECT_THROW((void)s.is_subset_of(other_set), std::invalid_argument);
  EXPECT_THROW((void)m.union_with(other), std::invalid_argument);
  EXPECT_THROW((void)s.union_with(other_set), std::invalid_argument);
  EXPECT_THROW((void)m.minus(other), std::invalid_argument);
  EXPECT_THROW((void)s.minus(other_set), std::invalid_argument);
  // The bits constructor range-checks against the universe cap.
  EXPECT_THROW(LabelMask(3, 0b1000), std::out_of_range);
  EXPECT_NO_THROW(LabelMask(3, 0b101));
}

/// Brute-force reference: all non-empty subsets of the given support,
/// sorted descending.
std::vector<std::uint64_t> all_nonempty_submasks(
    const std::vector<std::uint32_t>& support) {
  std::vector<std::uint64_t> out;
  const std::size_t count = std::size_t{1} << support.size();
  for (std::size_t pick = 1; pick < count; ++pick) {
    std::uint64_t sub = 0;
    for (std::size_t i = 0; i < support.size(); ++i) {
      if ((pick >> i) & 1) sub |= std::uint64_t{1} << support[i];
    }
    out.push_back(sub);
  }
  std::sort(out.begin(), out.end(), std::greater<>());
  return out;
}

void expect_subset_walk_exact(const std::vector<std::uint32_t>& support) {
  std::uint64_t mask = 0;
  for (const auto l : support) mask |= std::uint64_t{1} << l;
  std::vector<std::uint64_t> visited;
  for_each_nonempty_submask(mask,
                            [&](std::uint64_t sub) { visited.push_back(sub); });
  // Exactly the 2^k - 1 non-empty subsets, in strictly decreasing order.
  EXPECT_EQ(visited, all_nonempty_submasks(support));
}

TEST(LabelMaskWTest, SubmaskWalkCompleteAndDecreasingAcrossSeams) {
  // Supports straddling the word's half and top bit: the walk's borrow
  // must ripple across the zero runs between set bits without overflow.
  expect_subset_walk_exact({0, 31, 32, 63});
  expect_subset_walk_exact({1, 2, 62, 63});
  expect_subset_walk_exact({5, 20, 40, 61, 62, 63});
  // Degenerate cases: empty mask visits nothing; singleton visits itself.
  std::size_t visits = 0;
  for_each_nonempty_submask(0, [&](std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0u);
  expect_subset_walk_exact({63});
}

}  // namespace
}  // namespace lcl
