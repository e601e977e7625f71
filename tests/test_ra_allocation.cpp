#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "ra/allocation.hpp"
#include "test_support.hpp"

namespace cdsf::ra {
namespace {

using test::small_platform;

// ------------------------------------------------------------ Allocation --

TEST(Allocation, FitsRespectsCapacity) {
  const auto platform = small_platform();  // 4 x type1, 8 x type2
  EXPECT_TRUE(Allocation({{0, 4}, {1, 8}}).fits(platform));
  EXPECT_FALSE(Allocation({{0, 5}}).fits(platform));
  EXPECT_FALSE(Allocation({{0, 2}, {0, 3}}).fits(platform));  // 5 > 4 combined
  EXPECT_FALSE(Allocation({{2, 1}}).fits(platform));          // unknown type
  EXPECT_FALSE(Allocation({{0, 0}}).fits(platform));          // empty group
}

TEST(Allocation, UsageAccounting) {
  const Allocation allocation({{0, 2}, {1, 4}, {0, 1}});
  EXPECT_EQ(allocation.used_of_type(0), 3u);
  EXPECT_EQ(allocation.used_of_type(1), 4u);
  EXPECT_EQ(allocation.total_processors(), 7u);
  EXPECT_EQ(allocation.size(), 3u);
}

TEST(Allocation, ToStringNamesTypes) {
  const Allocation allocation({{0, 2}, {1, 8}});
  const std::string text = allocation.to_string(small_platform());
  EXPECT_NE(text.find("2 x type1"), std::string::npos);
  EXPECT_NE(text.find("8 x type2"), std::string::npos);
}

// ------------------------------------------------------- candidate counts --

TEST(CandidateCounts, PowerOfTwo) {
  EXPECT_EQ(candidate_counts(8, CountRule::kPowerOfTwo),
            (std::vector<std::size_t>{1, 2, 4, 8}));
  EXPECT_EQ(candidate_counts(6, CountRule::kPowerOfTwo), (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_TRUE(candidate_counts(0, CountRule::kPowerOfTwo).empty());
}

TEST(CandidateCounts, Any) {
  EXPECT_EQ(candidate_counts(3, CountRule::kAny), (std::vector<std::size_t>{1, 2, 3}));
}

// ------------------------------------------------------------ enumeration --

TEST(Enumerate, SingleAppSingleType) {
  const sysmodel::Platform platform({{"t", 4}});
  const auto all = enumerate_feasible(1, platform, CountRule::kPowerOfTwo);
  // counts {1, 2, 4}.
  EXPECT_EQ(all.size(), 3u);
}

TEST(Enumerate, AllResultsAreFeasibleAndComplete) {
  const auto platform = small_platform();
  const auto all = enumerate_feasible(3, platform, CountRule::kPowerOfTwo);
  EXPECT_FALSE(all.empty());
  std::set<std::vector<std::pair<std::size_t, std::size_t>>> unique;
  for (const Allocation& allocation : all) {
    EXPECT_EQ(allocation.size(), 3u);
    EXPECT_TRUE(allocation.fits(platform));
    std::vector<std::pair<std::size_t, std::size_t>> key;
    for (const GroupAssignment& g : allocation.groups()) {
      key.emplace_back(g.processor_type, g.processors);
    }
    unique.insert(key);
  }
  EXPECT_EQ(unique.size(), all.size());  // no duplicates
}

TEST(Enumerate, ContainsThePaperAllocations) {
  const auto all = enumerate_feasible(3, small_platform(), CountRule::kPowerOfTwo);
  const Allocation naive({{1, 4}, {0, 4}, {1, 4}});
  const Allocation robust({{0, 2}, {0, 2}, {1, 8}});
  EXPECT_NE(std::find(all.begin(), all.end(), naive), all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), robust), all.end());
}

TEST(Enumerate, CountMatchesMaterialization) {
  // One to three types, with capacity 1 and capacities that are not powers
  // of two, under both rules, for one to five applications.
  const std::vector<sysmodel::Platform> platforms = {
      sysmodel::Platform({{"a", 1}}),
      sysmodel::Platform({{"a", 6}}),
      small_platform(),
      sysmodel::Platform({{"a", 1}, {"b", 5}}),
      sysmodel::Platform({{"a", 3}, {"b", 1}, {"c", 6}}),
      sysmodel::Platform({{"a", 2}, {"b", 4}, {"c", 7}}),
  };
  for (const sysmodel::Platform& platform : platforms) {
    for (const CountRule rule : {CountRule::kPowerOfTwo, CountRule::kAny}) {
      for (std::size_t apps = 1; apps <= 5; ++apps) {
        EXPECT_EQ(count_feasible(apps, platform, rule),
                  enumerate_feasible(apps, platform, rule).size())
            << "types=" << platform.type_count() << " total=" << platform.total_processors()
            << " any=" << (rule == CountRule::kAny) << " apps=" << apps;
      }
    }
  }

  // The large-scale platform (8/16/32): the large_stage1 batch of 5
  // applications and bench_large_scale's 10.
  const sysmodel::Platform large({{"fast", 8}, {"mid", 16}, {"slow", 32}});
  EXPECT_EQ(count_feasible(5, large, CountRule::kPowerOfTwo), 278236u);
  EXPECT_EQ(count_feasible(10, large, CountRule::kPowerOfTwo), 21250540483u);
  // 40 applications there are about 3.9e27 allocations: the count saturates.
  EXPECT_EQ(count_feasible(40, large, CountRule::kPowerOfTwo),
            std::numeric_limits<std::size_t>::max());
  // More applications than processors: nothing fits.
  EXPECT_EQ(count_feasible(57, large, CountRule::kAny), 0u);
}

TEST(Enumerate, AnyRuleIsSuperset) {
  const auto platform = small_platform();
  EXPECT_GT(count_feasible(2, platform, CountRule::kAny),
            count_feasible(2, platform, CountRule::kPowerOfTwo));
}

TEST(Enumerate, ZeroAppsThrows) {
  EXPECT_THROW(enumerate_feasible(0, small_platform(), CountRule::kAny), std::invalid_argument);
  EXPECT_THROW(count_feasible(0, small_platform(), CountRule::kAny), std::invalid_argument);
}

TEST(Enumerate, InfeasibleWhenTooManyApps) {
  const sysmodel::Platform tiny({{"t", 2}});
  EXPECT_TRUE(enumerate_feasible(3, tiny, CountRule::kAny).empty());
}

}  // namespace
}  // namespace cdsf::ra
