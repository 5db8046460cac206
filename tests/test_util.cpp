// Unit tests for util: deterministic RNG, permutations, statistics, tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <type_traits>
#include <vector>

#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pu = plexus::util;

TEST(Rng, SplitMixDeterministic) {
  pu::SplitMix64 a(42);
  pu::SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitMixSeedsDiffer) {
  pu::SplitMix64 a(1);
  pu::SplitMix64 b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  pu::SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, CounterRngIsStateless) {
  pu::CounterRng rng(123);
  const double v1 = rng.uniform_at(55);
  (void)rng.uniform_at(99);  // interleaved access must not matter
  EXPECT_EQ(v1, rng.uniform_at(55));
}

TEST(Rng, CounterRngRangeMapping) {
  pu::CounterRng rng(9);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const float v = rng.uniform_at(i, -2.0f, 3.0f);
    EXPECT_GE(v, -2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

class PermutationSizes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(PermutationSizes, RandomPermutationIsValid) {
  const auto n = GetParam();
  const auto perm = pu::random_permutation(n, 31337);
  EXPECT_TRUE(pu::is_permutation(perm));
  EXPECT_EQ(static_cast<std::int64_t>(perm.size()), n);
}

TEST_P(PermutationSizes, InverseComposesToIdentity) {
  const auto n = GetParam();
  const auto perm = pu::random_permutation(n, 99);
  const auto inv = pu::invert_permutation(perm);
  for (std::int64_t i = 0; i < n; ++i) {
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PermutationSizes, ::testing::Values(0, 1, 2, 7, 64, 1000));

TEST(Permutation, DifferentSeedsDiffer) {
  EXPECT_NE(pu::random_permutation(100, 1), pu::random_permutation(100, 2));
}

TEST(Permutation, IdentityIsIdentity) {
  const auto id = pu::identity_permutation(5);
  for (std::int64_t i = 0; i < 5; ++i) EXPECT_EQ(id[static_cast<std::size_t>(i)], i);
}

TEST(Stats, Summary) {
  const auto s = pu::summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Stats, MaxOverMean) {
  EXPECT_NEAR(pu::max_over_mean({1.0, 1.0, 2.0}), 2.0 / (4.0 / 3.0), 1e-12);
}

TEST(Stats, RegressionRecoversCoefficients) {
  // y = 3 x0 - 2 x1 + 0.5, noiseless.
  std::vector<std::vector<double>> X;
  std::vector<double> y;
  pu::SplitMix64 rng(5);
  for (int i = 0; i < 50; ++i) {
    const double x0 = rng.next_double() * 10;
    const double x1 = rng.next_double() * 4 - 2;
    X.push_back({x0, x1});
    y.push_back(3.0 * x0 - 2.0 * x1 + 0.5);
  }
  const auto beta = pu::linear_regression(X, y, /*add_intercept=*/true);
  ASSERT_EQ(beta.size(), 3u);
  EXPECT_NEAR(beta[0], 0.5, 1e-8);
  EXPECT_NEAR(beta[1], 3.0, 1e-8);
  EXPECT_NEAR(beta[2], -2.0, 1e-8);
  const auto pred = pu::linear_predict(X, beta, true);
  EXPECT_NEAR(pu::r_squared(y, pred), 1.0, 1e-12);
  EXPECT_NEAR(pu::rmse(y, pred), 0.0, 1e-8);
}

TEST(Stats, RSquaredOfMeanPredictorIsZero) {
  const std::vector<double> y{1.0, 2.0, 3.0};
  const std::vector<double> pred{2.0, 2.0, 2.0};
  EXPECT_NEAR(pu::r_squared(y, pred), 0.0, 1e-12);
}

TEST(Stats, SolveLinearSystem) {
  // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
  const auto x = pu::solve_linear_system({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Stats, PowerLawFit) {
  // y = 2.5 x^1.7
  std::vector<double> x;
  std::vector<double> y;
  for (double v = 1; v <= 64; v *= 2) {
    x.push_back(v);
    y.push_back(2.5 * std::pow(v, 1.7));
  }
  const auto [a, b] = pu::fit_power_law(x, y);
  EXPECT_NEAR(a, 2.5, 1e-6);
  EXPECT_NEAR(b, 1.7, 1e-9);
}

TEST(Stats, LogHistogramPercentilesCountAndFootprint) {
  // All of the histogram's state is inline: a trivially copyable, trivially
  // destructible type owns no heap storage, so recording cannot grow it.
  static_assert(std::is_trivially_copyable_v<pu::LogHistogram>);
  static_assert(std::is_trivially_destructible_v<pu::LogHistogram>);
  pu::LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.percentile(0.5), 0.0);

  // Serve-like latencies in microseconds, plus exact powers of two (the
  // lower edge of an octave, where the midpoint error is largest).
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> latency(std::log(120.0), 1.2);
  std::vector<double> xs;
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    const double x = i % 50 == 0 ? std::ldexp(1.0, i % 20) : latency(rng);
    xs.push_back(x);
    h.record(x);
    sum += x;
  }
  EXPECT_EQ(h.count(), kSamples);
  EXPECT_EQ(h.sum(), sum);
  EXPECT_EQ(h.mean(), sum / kSamples);
  for (const double q : {0.0, 0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const auto idx = static_cast<std::size_t>(std::llround(q * (kSamples - 1)));
    std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(idx), xs.end());
    const double want = xs[idx];
    EXPECT_LE(std::abs(h.percentile(q) - want), pu::LogHistogram::kRelativeError * want)
        << "q " << q << ": exact " << want << ", histogram " << h.percentile(q);
  }
}

TEST(Table, FormatsCounts) {
  EXPECT_EQ(pu::Table::fmt_count(1313241), "1,313,241");
  EXPECT_EQ(pu::Table::fmt_count(0), "0");
  EXPECT_EQ(pu::Table::fmt_count(-4200), "-4,200");
}

TEST(Table, RendersAlignedRows) {
  pu::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  pu::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::runtime_error);
}

TEST(Parse, AcceptsWholeIntegers) {
  std::int64_t v64 = -1;
  EXPECT_TRUE(pu::parse_int64("0", v64));
  EXPECT_EQ(v64, 0);
  EXPECT_TRUE(pu::parse_int64("8000", v64));
  EXPECT_EQ(v64, 8000);
  EXPECT_TRUE(pu::parse_int64("-17", v64));
  EXPECT_EQ(v64, -17);
  EXPECT_TRUE(pu::parse_int64("9223372036854775807", v64));
  EXPECT_EQ(v64, INT64_MAX);
  int v = -1;
  EXPECT_TRUE(pu::parse_int("2147483647", v));
  EXPECT_EQ(v, INT32_MAX);
  double d = -1.0;
  EXPECT_TRUE(pu::parse_double("0.99", d));
  EXPECT_EQ(d, 0.99);
  EXPECT_TRUE(pu::parse_double("0", d));
  EXPECT_EQ(d, 0.0);
  EXPECT_TRUE(pu::parse_double("-1.5e-3", d));
  EXPECT_EQ(d, -1.5e-3);
}

TEST(Parse, RejectsGarbageUnlikeAtoi) {
  // Everything std::atoi would silently turn into 0 (or truncate) must fail.
  std::int64_t v64 = 123;
  EXPECT_FALSE(pu::parse_int64("", v64));
  EXPECT_FALSE(pu::parse_int64("abc", v64));
  EXPECT_FALSE(pu::parse_int64("12x", v64));
  EXPECT_FALSE(pu::parse_int64("x12", v64));
  EXPECT_FALSE(pu::parse_int64(" 12", v64));
  EXPECT_FALSE(pu::parse_int64("1 2", v64));
  EXPECT_FALSE(pu::parse_int64("1.5", v64));
  EXPECT_FALSE(pu::parse_int64("0x10", v64));
  EXPECT_FALSE(pu::parse_int64("99999999999999999999", v64));  // overflow
  EXPECT_EQ(v64, 123);  // failures leave the output untouched
  int v = 77;
  EXPECT_FALSE(pu::parse_int("2147483648", v));  // fits int64, not int
  EXPECT_FALSE(pu::parse_int("-2147483649", v));
  EXPECT_EQ(v, 77);
  // Whole string, finite only: std::stod would read "0.99x" as 0.99, skip
  // leading blanks and accept "inf" / "nan".
  double d = 0.5;
  EXPECT_FALSE(pu::parse_double("", d));
  EXPECT_FALSE(pu::parse_double("abc", d));
  EXPECT_FALSE(pu::parse_double("0.99x", d));
  EXPECT_FALSE(pu::parse_double(" 0.99", d));
  EXPECT_FALSE(pu::parse_double("inf", d));
  EXPECT_FALSE(pu::parse_double("nan", d));
  EXPECT_FALSE(pu::parse_double("1e999", d));  // overflow
  EXPECT_EQ(d, 0.5);
}

// ---------------------------------------------------------------------------
// util::EnumNames — the one string<->enum registry (CLI flags, env vars,
// checkpoint headers). Property: to_string(from_string(name)) == name for
// every listed name, case-insensitively, for each registered enum.

#include <cctype>

#include "comm/transport.hpp"
#include "core/preprocess.hpp"
#include "util/enum_names.hpp"

namespace {

template <typename E>
void expect_enum_round_trip() {
  for (const auto& entry : pu::EnumNames<E>::table) {
    E parsed{};
    ASSERT_TRUE(pu::enum_from_string(entry.name, parsed)) << entry.name;
    EXPECT_EQ(parsed, entry.value);
    EXPECT_STREQ(pu::enum_name(parsed), entry.name);

    // Case-insensitive: SHOUTED names parse to the same value.
    std::string upper = entry.name;
    for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    E parsed_upper{};
    ASSERT_TRUE(pu::enum_from_string(upper, parsed_upper)) << upper;
    EXPECT_EQ(parsed_upper, entry.value);

    // The choices listing mentions every name.
    EXPECT_NE(pu::enum_choices<E>().find(entry.name), std::string::npos);
  }
}

}  // namespace

TEST(EnumNames, BackendRoundTrip) { expect_enum_round_trip<plexus::comm::Backend>(); }
TEST(EnumNames, PermutationSchemeRoundTrip) {
  expect_enum_round_trip<plexus::core::PermutationScheme>();
}

TEST(EnumNames, RejectsUnknownAndFormatsError) {
  plexus::comm::Backend b = plexus::comm::Backend::Sim;
  EXPECT_FALSE(pu::enum_from_string("bogus", b));
  EXPECT_EQ(b, plexus::comm::Backend::Sim);  // untouched on failure
  const auto msg = pu::enum_error<plexus::comm::Backend>("bogus");
  EXPECT_NE(msg.find("unknown backend 'bogus'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("sim"), std::string::npos) << msg;
  // Caller-supplied availability listing overrides the static table.
  const auto custom = pu::enum_error<plexus::comm::Backend>("x", "sim | local");
  EXPECT_NE(custom.find("(expected sim | local)"), std::string::npos) << custom;
}

// ---------------------------------------------------------------------------
// util::ArgParser — the shared --key=value CLI for the example binaries.

#include "util/arg_parser.hpp"

namespace {

// argv builder: gtest-friendly wrapper around the char** interface.
pu::ArgParser::Status parse_args(pu::ArgParser& args, std::vector<std::string> argv) {
  argv.insert(argv.begin(), "prog");
  std::vector<char*> ptrs;
  for (auto& s : argv) ptrs.push_back(s.data());
  return args.parse(static_cast<int>(ptrs.size()), ptrs.data());
}

pu::ArgParser train_like_parser() {
  pu::ArgParser args("prog", "test parser");
  args.add_flag("dataset", "name", "dataset to use", "ogbn-products");
  args.add_flag("epochs", "n", "epochs to train", "10");
  args.add_flag("checkpoint", "dir", "checkpoint directory");
  return args;
}

}  // namespace

TEST(ArgParser, DefaultsAndOverrides) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--epochs=5"}), pu::ArgParser::Status::Ok);
  EXPECT_TRUE(args.is_set("epochs"));
  EXPECT_FALSE(args.is_set("dataset"));
  EXPECT_EQ(args.value("dataset"), "ogbn-products");  // default reported
  int epochs = 0;
  EXPECT_TRUE(args.value_int("epochs", epochs));
  EXPECT_EQ(epochs, 5);
}

TEST(ArgParser, BareFlagStoresOne) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--checkpoint"}), pu::ArgParser::Status::Ok);
  EXPECT_TRUE(args.is_set("checkpoint"));
  EXPECT_EQ(args.value("checkpoint"), "1");
}

TEST(ArgParser, PositionalArgumentIsAnError) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--epochs=3", "test-graph"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("'test-graph'"), std::string::npos) << args.error();
  EXPECT_NE(args.error().find("--key=value"), std::string::npos) << args.error();
}

TEST(ArgParser, HelpShortCircuits) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--help"}), pu::ArgParser::Status::Help);
  // Usage mentions every flag with its hint, and no positional form.
  const auto usage = args.usage();
  EXPECT_NE(usage.find("--dataset=name"), std::string::npos) << usage;
  EXPECT_NE(usage.find("--epochs=n"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("positional"), std::string::npos) << usage;
}

TEST(ArgParser, UnknownFlagSuggestsNearestName) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--epocs=3"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("--epocs"), std::string::npos) << args.error();
  EXPECT_NE(args.error().find("--epochs"), std::string::npos) << args.error();  // did-you-mean
}

TEST(ArgParser, UnknownFlagWithoutNeighborStillErrors) {
  auto args = train_like_parser();
  EXPECT_EQ(parse_args(args, {"--definitely-not-a-flag=1"}), pu::ArgParser::Status::Error);
  EXPECT_NE(args.error().find("definitely-not-a-flag"), std::string::npos) << args.error();
}

TEST(ArgParser, RejectsNonNumericValues) {
  auto args = train_like_parser();
  ASSERT_EQ(parse_args(args, {"--epochs=ten"}), pu::ArgParser::Status::Ok);  // strings parse fine
  int epochs = 42;
  EXPECT_FALSE(args.value_int("epochs", epochs));
  EXPECT_EQ(epochs, 42);  // untouched on failure
  std::int64_t e64 = 42;
  EXPECT_FALSE(args.value_int64("epochs", e64));
  double ed = 42.0;
  EXPECT_FALSE(args.value_double("epochs", ed));
  EXPECT_EQ(ed, 42.0);
  ASSERT_EQ(parse_args(args, {"--epochs=0.99x"}), pu::ArgParser::Status::Ok);
  EXPECT_FALSE(args.value_double("epochs", ed));
  ASSERT_EQ(parse_args(args, {"--epochs=0.99"}), pu::ArgParser::Status::Ok);
  EXPECT_TRUE(args.value_double("epochs", ed));
  EXPECT_EQ(ed, 0.99);
}
