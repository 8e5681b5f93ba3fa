/** @file Unit tests for common/stats. */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"

namespace mcbp {
namespace {

TEST(StatRegistry, AddAndGet)
{
    StatRegistry r;
    EXPECT_EQ(r.get("x"), 0u);
    EXPECT_FALSE(r.has("x"));
    r.add("x", 5);
    r.inc("x");
    EXPECT_EQ(r.get("x"), 6u);
    EXPECT_TRUE(r.has("x"));
}

TEST(StatRegistry, ClearKeepsNames)
{
    StatRegistry r;
    r.add("a", 3);
    r.clear();
    EXPECT_TRUE(r.has("a"));
    EXPECT_EQ(r.get("a"), 0u);
}

TEST(StatRegistry, Merge)
{
    StatRegistry a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("y"), 3u);
}

TEST(StatRegistry, NamesSorted)
{
    StatRegistry r;
    r.add("zeta", 1);
    r.add("alpha", 1);
    auto names = r.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(StatRegistry, ToStringContains)
{
    StatRegistry r;
    r.add("adds", 42);
    EXPECT_NE(r.toString().find("adds = 42"), std::string::npos);
}

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(RunningStat, Accumulates)
{
    RunningStat s;
    s.observe(1.0);
    s.observe(3.0);
    s.observe(-2.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), 3.0);
    EXPECT_NEAR(s.mean(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStat, SingleValue)
{
    RunningStat s;
    s.observe(7.0);
    EXPECT_DOUBLE_EQ(s.min(), 7.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.0);
    EXPECT_DOUBLE_EQ(s.mean(), 7.0);
}

/** Bits of every p of @p ps by sort + percentileSorted (the reference)
 *  and by selection over a copy, which must agree exactly. */
void
expectSelectionMatchesSort(const std::vector<double> &samples,
                           const std::vector<double> &ps)
{
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    std::vector<double> selected = samples;
    const std::vector<double> got = percentilesBySelection(selected, ps);
    ASSERT_EQ(got.size(), ps.size());
    for (std::size_t k = 0; k < ps.size(); ++k)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(
                      percentileSorted(sorted, ps[k])))
            << "n " << samples.size() << " p " << ps[k];
    // Selection only reorders.
    std::sort(selected.begin(), selected.end());
    EXPECT_EQ(selected, sorted);
}

TEST(Percentile, SelectionBitIdenticalToSort)
{
    const std::vector<double> ps = {0.0, 0.5, 0.9, 0.99, 1.0};
    Rng rng(41);
    for (std::size_t n : {1, 2, 3, 10, 101, 1000, 4097}) {
        std::vector<double> uniform;
        std::vector<double> duplicates;
        for (std::size_t i = 0; i < n; ++i) {
            uniform.push_back(rng.gaussian(3.0, 2.0));
            // A handful of distinct values, each repeated many times.
            duplicates.push_back(0.25 *
                                 static_cast<double>(rng.uniformInt(5)));
        }
        expectSelectionMatchesSort(uniform, ps);
        expectSelectionMatchesSort(duplicates, ps);
        // Each quantile alone, too (the range narrowing starts fresh).
        for (double p : ps)
            expectSelectionMatchesSort(uniform, {p});
    }
    // Sizes 1 and 2 by hand: the single sample; linear interpolation.
    std::vector<double> one = {4.5};
    EXPECT_EQ(percentilesBySelection(one, {0.0, 0.5, 1.0}),
              (std::vector<double>{4.5, 4.5, 4.5}));
    std::vector<double> two = {3.0, 1.0};
    EXPECT_EQ(percentilesBySelection(two, {0.0, 0.5, 1.0}),
              (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Percentile, SelectionRejectsBadInput)
{
    std::vector<double> empty;
    EXPECT_THROW((void)percentilesBySelection(empty, {0.5}),
                 std::runtime_error);
    std::vector<double> samples = {1.0, 2.0, 3.0};
    EXPECT_THROW((void)percentilesBySelection(samples, {1.5}),
                 std::runtime_error);
    EXPECT_THROW((void)percentilesBySelection(samples, {0.9, 0.5}),
                 std::runtime_error);
}

} // namespace
} // namespace mcbp
