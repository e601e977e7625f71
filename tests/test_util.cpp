#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace cdsf::util {
namespace {

// ------------------------------------------------------------------ rng --

TEST(SplitMix64, DeterministicSequence) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(SplitMix64, KnownReferenceValue) {
  // First output for seed 0 from the reference implementation.
  SplitMix64 gen(0);
  EXPECT_EQ(gen.next(), 0xE220A8397B1DCDAFULL);
}

TEST(RngStream, Uniform01InRange) {
  RngStream rng(123);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformIntCoversInclusiveRange) {
  RngStream rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(RngStream, SameSeedSameDraws) {
  RngStream a(5);
  RngStream b(5);
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(RngStream, NormalMeanApproximatelyCorrect) {
  RngStream rng(17);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.1);
}

// ---------------------------------------------------- LazyMt19937_64 --

// RngStream's engine must stay sequence-identical to std::mt19937_64:
// seeds, reports and recorded baselines all assume its words.
using StdMt19937_64 = std::mt19937_64;  // cdsf-lint: allow(rng-source)

std::vector<std::uint64_t> reference_seeds() {
  std::vector<std::uint64_t> seeds = {0, 1, 5489, ~std::uint64_t{0}};
  SplitMix64 mixer(2012);
  for (int i = 0; i < 1000; ++i) seeds.push_back(mixer.next());
  return seeds;
}

std::vector<std::uint64_t> reference_words(std::uint64_t seed, std::size_t count) {
  StdMt19937_64 reference(seed);
  std::vector<std::uint64_t> words(count);
  for (std::uint64_t& word : words) word = reference();
  return words;
}

TEST(LazyMt19937_64, MatchesStdWordForWordAcrossGenerations) {
  // 1,000 words cross the half state (156), the first full generation (312)
  // and the second (624).
  constexpr std::size_t kWords = 1000;
  for (const std::uint64_t seed : reference_seeds()) {
    const std::vector<std::uint64_t> expected = reference_words(seed, kWords);
    LazyMt19937_64 lazy(seed);
    for (std::size_t i = 0; i < kWords; ++i) {
      ASSERT_EQ(lazy(), expected[i]) << "seed " << seed << ", word " << i;
    }
  }
}

TEST(LazyMt19937_64, StandardTenThousandthWord) {
  // The C++ standard's check value for mt19937_64 with its default seed.
  LazyMt19937_64 lazy(5489);
  for (int i = 1; i < 10000; ++i) lazy();
  EXPECT_EQ(lazy(), 9981545732273789042ULL);
}

TEST(LazyMt19937_64, EveryLengthAndMidGenerationCopyContinueIdentically) {
  constexpr std::size_t kMaxLength = 1000;
  constexpr std::size_t kTail = 64;
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
                                   ~std::uint64_t{0}}) {
    const std::vector<std::uint64_t> expected = reference_words(seed, kMaxLength + kTail);
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      LazyMt19937_64 lazy(seed);
      for (std::size_t i = 0; i < length; ++i) {
        ASSERT_EQ(lazy(), expected[i]) << "seed " << seed << ", length " << length;
      }
      LazyMt19937_64 copy = lazy;
      for (std::size_t i = length; i < length + kTail; ++i) {
        ASSERT_EQ(copy(), expected[i]) << "copy at length " << length << ", seed " << seed;
        ASSERT_EQ(lazy(), expected[i]) << "original at length " << length << ", seed " << seed;
      }
    }
  }
}

TEST(RngStream, DrawsMatchStdEngineDrawForDraw) {
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{7919},
                                   ~std::uint64_t{0}}) {
    RngStream rng(seed);
    StdMt19937_64 reference(SplitMix64(seed).next());
    for (int i = 0; i < 400; ++i) {
      ASSERT_EQ(rng.uniform01(), std::uniform_real_distribution<double>(0.0, 1.0)(reference));
      ASSERT_EQ(rng.uniform(-3.0, 5.0),
                std::uniform_real_distribution<double>(-3.0, 5.0)(reference));
      ASSERT_EQ(rng.uniform_int(-4, 1000),
                std::uniform_int_distribution<std::int64_t>(-4, 1000)(reference));
      ASSERT_EQ(rng.normal(), std::normal_distribution<double>(0.0, 1.0)(reference));
      ASSERT_EQ(rng.normal(10.0, 2.5), std::normal_distribution<double>(10.0, 2.5)(reference));
      ASSERT_EQ(std::gamma_distribution<double>(0.7, 2.0)(rng.engine()),
                std::gamma_distribution<double>(0.7, 2.0)(reference));
      ASSERT_EQ(std::exponential_distribution<double>(0.25)(rng.engine()),
                std::exponential_distribution<double>(0.25)(reference));
      ASSERT_EQ(std::weibull_distribution<double>(1.5, 3.0)(rng.engine()),
                std::weibull_distribution<double>(1.5, 3.0)(reference));
      ASSERT_EQ(rng(), reference()) << "seed " << seed << ", round " << i;
    }
  }
}

// ---------------------------------------------- in-tree uniform / normal --

// A stub engine that returns one fixed word: feeds generate_canonical the
// boundary words of the word -> double conversion.
struct OneWordEngine {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() const { return word; }
  result_type word;
};

TEST(CanonicalDouble, MatchesGenerateCanonicalOnBoundaryWords) {
  constexpr std::uint64_t kTwo53 = std::uint64_t{1} << 53;
  constexpr std::uint64_t kTwo63 = std::uint64_t{1} << 63;
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // 2^64 - 1025 is the largest word that rounds below 2^64; the last two
  // round to 2^64 and take the clamp to nextafter(1, 0).
  std::vector<std::uint64_t> words = {0,          1,           kTwo53 - 1,  kTwo53,    kTwo53 + 1,
                                      kTwo63,     kTwo63 + 1,  kMax - 1025, kMax - 1024, kMax - 1023,
                                      kMax};
  SplitMix64 mixer(53);
  for (int i = 0; i < 10000; ++i) words.push_back(mixer.next());
  for (const std::uint64_t word : words) {
    const double value = canonical_double(word);
    EXPECT_GE(value, 0.0) << word;
    EXPECT_LT(value, 1.0) << word;
#if defined(__GLIBCXX__)
    OneWordEngine engine{word};
    ASSERT_EQ(value, (std::generate_canonical<double, 53>(engine))) << "word " << word;
#endif
  }
  EXPECT_EQ(canonical_double(0), 0.0);
  EXPECT_EQ(canonical_double(1), 0x1p-64);
  EXPECT_EQ(canonical_double(kTwo53 + 1), 0x1p-11);  // ties to even: 2^53 + 1 -> 2^53
  EXPECT_EQ(canonical_double(kTwo63), 0.5);
  EXPECT_EQ(canonical_double(kMax - 1025), 0x1.fffffffffffffp-1);
  EXPECT_EQ(canonical_double(kMax - 1024), 0x1.fffffffffffffp-1);
  EXPECT_EQ(canonical_double(kMax), 0x1.fffffffffffffp-1);
}

// Every recorded report and baseline was drawn through libstdc++'s
// uniform_real_distribution and fresh normal_distribution objects; the
// in-tree draws must reproduce them bit for bit.
TEST(RngStream, UniformAndNormalMatchLibstdcxxDistributionsBitForBit) {
#if defined(__GLIBCXX__)
  constexpr int kDrawsPerSeed = 250000;  // 10^6 per method over the four seeds
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{7919},
                                   ~std::uint64_t{0}}) {
    const std::uint64_t engine_seed = SplitMix64(seed).next();
    {
      RngStream rng(seed);
      StdMt19937_64 reference(engine_seed);
      for (int i = 0; i < kDrawsPerSeed; ++i) {
        ASSERT_EQ(rng.uniform01(), std::uniform_real_distribution<double>(0.0, 1.0)(reference))
            << "uniform01, seed " << seed << ", draw " << i;
      }
    }
    {
      RngStream rng(seed);
      StdMt19937_64 reference(engine_seed);
      for (int i = 0; i < kDrawsPerSeed; ++i) {
        const double lo = i % 3 == 0 ? -3.0 : 1e-3 * i;
        const double hi = lo + (i % 5 == 0 ? 1e9 : 8.5);
        ASSERT_EQ(rng.uniform(lo, hi), std::uniform_real_distribution<double>(lo, hi)(reference))
            << "uniform, seed " << seed << ", draw " << i;
      }
    }
    {
      RngStream rng(seed);
      StdMt19937_64 reference(engine_seed);
      for (int i = 0; i < kDrawsPerSeed; ++i) {
        ASSERT_EQ(rng.normal(), std::normal_distribution<double>(0.0, 1.0)(reference))
            << "normal(), seed " << seed << ", draw " << i;
      }
    }
    {
      RngStream rng(seed);
      StdMt19937_64 reference(engine_seed);
      for (int i = 0; i < kDrawsPerSeed; ++i) {
        const double mean = i % 2 == 0 ? 10.0 : -1e-3 * i;
        const double stddev = i % 7 == 0 ? 1e-300 : 2.5 + 1e-4 * i;
        ASSERT_EQ(rng.normal(mean, stddev), std::normal_distribution<double>(mean, stddev)(reference))
            << "normal(mean, sd), seed " << seed << ", draw " << i;
      }
      // The same words were consumed, rejections included.
      ASSERT_EQ(rng(), reference()) << "seed " << seed;
    }
  }
#else
  GTEST_SKIP() << "the recorded draws come from libstdc++'s distributions";
#endif
}

TEST(SeedSequence, ChildSeedsAreOrderIndependent) {
  SeedSequence seq(42);
  const std::uint64_t fifth = seq.child(5);
  const std::uint64_t second = seq.child(2);
  EXPECT_EQ(seq.child(5), fifth);
  EXPECT_EQ(seq.child(2), second);
  EXPECT_NE(fifth, second);
}

TEST(SeedSequence, ChildrenOfDifferentMastersDiffer) {
  EXPECT_NE(SeedSequence(1).child(0), SeedSequence(2).child(0));
}

TEST(SeedSequence, ManyChildrenAreDistinct) {
  SeedSequence seq(1234);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(seq.child(i));
  EXPECT_EQ(seen.size(), 1000u);
}

// ---------------------------------------------------------------- table --

TEST(Table, RendersHeadersAndRows) {
  Table table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const std::string out = table.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, RowSizeMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, TitleAppearsBeforeTable) {
  Table table({"x"});
  table.set_title("My Title");
  table.add_row({"1"});
  EXPECT_EQ(table.render().rfind("My Title", 0), 0u);
}

TEST(Table, SeparatorAddsRule) {
  Table table({"x"});
  table.add_row({"1"});
  const std::string before = table.render();
  const auto lines_before = std::count(before.begin(), before.end(), '\n');
  table.add_separator();
  table.add_row({"2"});
  const std::string out = table.render();
  EXPECT_GT(std::count(out.begin(), out.end(), '\n'), lines_before + 1);
}

TEST(Table, AlignmentLeftPadsRight) {
  Table table({"col"});
  table.set_alignment({Align::kLeft});
  table.add_row({"ab"});
  table.add_row({"abcd"});
  EXPECT_NE(table.render().find("| ab   |"), std::string::npos);
}

TEST(TableFormat, FixedAndPercent) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_percent(0.745, 1), "74.5%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
}

// ------------------------------------------------------------------ csv --

TEST(Csv, PlainCellsUnquoted) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, QuotesCellsWithCommasAndQuotes) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.write_row({"x,y", "he said \"hi\""});
  EXPECT_EQ(out.str(), "\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Csv, EscapeIsIdempotentForPlainText) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
}

// ------------------------------------------------------------------ cli --

TEST(Cli, DefaultsApplyWithoutArguments) {
  Cli cli("test");
  cli.add_int("count", 7, "a count");
  cli.add_double("rate", 1.5, "a rate");
  cli.add_string("name", "dflt", "a name");
  cli.add_flag("verbose", "a flag");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_EQ(cli.get_string("name"), "dflt");
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST(Cli, ParsesSeparateAndEqualsForms) {
  Cli cli("test");
  cli.add_int("a", 0, "");
  cli.add_int("b", 0, "");
  const char* argv[] = {"prog", "--a", "3", "--b=4"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("a"), 3);
  EXPECT_EQ(cli.get_int("b"), 4);
}

TEST(Cli, FlagPresenceSetsTrue) {
  Cli cli("test");
  cli.add_flag("on", "");
  const char* argv[] = {"prog", "--on"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_flag("on"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW(cli.parse(2, argv), std::invalid_argument);
}

TEST(Cli, BadIntegerThrows) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  const char* argv[] = {"prog", "--n", "12x"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_THROW(cli.get_int("n"), std::invalid_argument);
}

TEST(Cli, WrongTypeAccessThrows) {
  Cli cli("test");
  cli.add_int("n", 0, "");
  EXPECT_THROW(cli.get_string("n"), std::logic_error);
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

// ------------------------------------------------------------------ log --

TEST(Log, ThresholdSuppressesBelowLevel) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  // These must not crash and must be cheap; output itself is not captured.
  CDSF_LOG_DEBUG << "invisible";
  CDSF_LOG_ERROR << "visible";
  set_log_level(saved);
  SUCCEED();
}

TEST(Log, LevelRoundTrips) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kTrace);
  EXPECT_EQ(log_level(), LogLevel::kTrace);
  set_log_level(saved);
}

}  // namespace
}  // namespace cdsf::util
