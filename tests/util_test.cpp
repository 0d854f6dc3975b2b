#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/sharded_cache.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace gana {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) {
    if (a.next_u64() != b.next_u64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, IndexInBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(17), 17u);
  }
}

TEST(Rng, RangeInclusiveBounds) {
  Rng rng(15);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.range(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values hit
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Strings, ToLowerUpper) {
  EXPECT_EQ(to_lower("Vdd!"), "vdd!");
  EXPECT_EQ(to_upper("m0"), "M0");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitWs) {
  const auto t = split_ws("  m0  net1\tnet2 \n");
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0], "m0");
  EXPECT_EQ(t[2], "net2");
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, SplitDelim) {
  const auto t = split("a=b", '=');
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "b");
  EXPECT_EQ(split("==", '=').size(), 3u);  // empty fields kept
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("vdd!", "vdd"));
  EXPECT_FALSE(starts_with("vd", "vdd"));
  EXPECT_TRUE(ends_with("file.sp", ".sp"));
  EXPECT_FALSE(ends_with("sp", ".sp"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "count"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name   | count"), std::string::npos);
  EXPECT_NE(s.find("longer | 22"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NO_THROW(t.str());
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_pct(0.905, 1), "90.5%");
}

TEST(Args, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "input.sp", "--k", "32", "--mode=fast",
                        "--verbose"};
  Args args(6, argv);
  EXPECT_EQ(args.get_int("k", 0), 32);
  EXPECT_EQ(args.get("mode"), "fast");
  EXPECT_TRUE(args.has("verbose"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.sp");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_EQ(args.get_double("missing", 1.5), 1.5);
}

TEST(Args, NumericValuesParseWhole) {
  const char* argv[] = {"prog", "--a", "4",     "--b", "-1",
                        "--c",  "0.5", "--d",   "1e-3"};
  const Args args(9, argv);
  EXPECT_EQ(args.get_int("a", 0), 4);
  EXPECT_EQ(args.get_int("b", 0), -1);
  EXPECT_EQ(args.get_double("c", 0.0), 0.5);
  EXPECT_EQ(args.get_double("d", 0.0), 1e-3);
  EXPECT_EQ(args.get_double("a", 0.0), 4.0);
}

TEST(Args, MalformedNumericValuesThrow) {
  // A partial or out-of-range parse is an error, never a truncated
  // value ("1e6" as the int 1, "1x" as 1, "abc" as 0).
  const char* argv[] = {"prog",          "--abc", "abc", "--trail", "1x",
                        "--sci",         "1e6",   "--big",
                        "99999999999",   "--empty="};
  const Args args(10, argv);
  for (const char* key : {"abc", "trail", "sci", "big", "empty"}) {
    SCOPED_TRACE(key);
    EXPECT_THROW((void)args.get_int(key, 0), ArgError);
  }
  EXPECT_THROW((void)args.get_double("abc", 0.0), ArgError);
  EXPECT_THROW((void)args.get_double("trail", 0.0), ArgError);
  EXPECT_THROW((void)args.get_double("empty", 0.0), ArgError);
  EXPECT_EQ(args.get_double("sci", 0.0), 1e6);
}

TEST(Args, U64ValuesParseWholeAndInRange) {
  const char* argv[] = {"prog",   "--zero", "0", "--max",
                        "18446744073709551615"};
  const Args args(5, argv);
  EXPECT_EQ(args.get_u64("zero", 7), 0u);
  EXPECT_EQ(args.get_u64("max", 0), ~std::uint64_t{0});
  EXPECT_EQ(args.get_u64("missing", 7), 7u);
}

TEST(Args, MalformedU64ValuesThrow) {
  // Seeds are never silently truncated, wrapped or defaulted.
  const char* argv[] = {"prog",   "--abc",   "abc", "--trail", "1x",
                        "--neg",  "-1",      "--sci", "1e6",   "--big",
                        "18446744073709551616", "--empty="};
  const Args args(12, argv);
  for (const char* key : {"abc", "trail", "neg", "sci", "big", "empty"}) {
    SCOPED_TRACE(key);
    EXPECT_THROW((void)args.get_u64(key, 0), ArgError);
  }
}

TEST(Args, CountsAtOrAboveTheirFloorParse) {
  const char* argv[] = {"prog", "--zero", "0", "--one", "1",
                        "--k",  "256",  "--many", "100000"};
  const Args args(9, argv);
  EXPECT_EQ(args.get_count("zero", 5, 0), 0u);
  EXPECT_EQ(args.get_count("one", 5, 1), 1u);
  EXPECT_EQ(args.get_count("one", 5, 0), 1u);
  EXPECT_EQ(args.get_count("k", 8, 1, 256), 256u);
  EXPECT_EQ(args.get_count("many", 5, 0), 100000u);
  EXPECT_EQ(args.get_count("missing", 7, 1), 7u);
}

TEST(Args, CountsOutOfRangeThrowInsteadOfClamping) {
  // A clamp would silently run another configuration ("--jobs -2" as
  // 0, one worker per hardware thread), so out of range is an error.
  const char* argv[] = {"prog", "--neg", "-2", "--zero", "0",
                        "--k",  "257",  "--bad",  "abc"};
  const Args args(9, argv);
  EXPECT_THROW((void)args.get_count("zero", 1, 1), ArgError);
  EXPECT_THROW((void)args.get_count("k", 8, 1, 256), ArgError);
  EXPECT_THROW((void)args.get_count("bad", 1, 0), ArgError);
  try {
    (void)args.get_count("neg", 1, 0);
    FAIL() << "--neg -2 was accepted as a count";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("--neg"), std::string::npos)
        << e.what();
  }
}

TEST(Args, SecondsAreNonNegative) {
  const char* argv[] = {"prog",  "--zero", "0",          "--tiny", "1e-9",
                        "--neg", "-1",     "--neg-half", "-0.5"};
  const Args args(9, argv);
  EXPECT_EQ(args.get_seconds("zero", 3.0), 0.0);
  EXPECT_EQ(args.get_seconds("tiny", 3.0), 1e-9);
  EXPECT_EQ(args.get_seconds("missing", 3.0), 3.0);
  EXPECT_THROW((void)args.get_seconds("neg", 0.0), ArgError);
  EXPECT_THROW((void)args.get_seconds("neg-half", 0.0), ArgError);
}

TEST(Args, FractionsLieInTheUnitInterval) {
  const char* argv[] = {"prog", "--zero", "0",    "--one",   "1",
                        "--mid", "0.25", "--neg", "-0.01",   "--big",
                        "1.5",   "--huge", "3",   "--word",  "half"};
  const Args args(15, argv);
  EXPECT_EQ(args.get_fraction("zero", 0.5), 0.0);
  EXPECT_EQ(args.get_fraction("one", 0.5), 1.0);
  EXPECT_EQ(args.get_fraction("mid", 0.5), 0.25);
  EXPECT_EQ(args.get_fraction("missing", 0.5), 0.5);
  for (const char* key : {"neg", "big", "huge", "word"}) {
    SCOPED_TRACE(key);
    try {
      (void)args.get_fraction(key, 0.0);
      ADD_FAILURE() << "--" << key << " was accepted as a fraction";
    } catch (const ArgError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Args, DeclaredBooleanFlagsDoNotConsumePositionals) {
  const char* argv[] = {"prog", "--session", "rev0.sp", "rev1.sp",
                        "--jobs", "4"};
  Args args(6, argv, {"session"});
  EXPECT_EQ(args.get("session"), "true");
  EXPECT_EQ(args.get_int("jobs", 1), 4);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "rev0.sp");
  EXPECT_EQ(args.positional()[1], "rev1.sp");

  // Undeclared bare flags keep the historical greedy-value behaviour.
  Args greedy(6, argv);
  EXPECT_EQ(greedy.get("session"), "rev0.sp");
  ASSERT_EQ(greedy.positional().size(), 1u);
}

TEST(Args, UnknownFlagIsRejectedByName) {
  const char* argv[] = {"prog", "in.sp", "--jobs", "4", "--bogus"};
  const Args args(5, argv);
  try {
    args.reject_unknown({"jobs"});
    FAIL() << "--bogus was accepted";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos)
        << e.what();
  }
}

TEST(Args, UnknownFlagWithInlineValueIsRejected) {
  const char* argv[] = {"prog", "--bogus=1", "in.sp"};
  const Args args(3, argv);
  EXPECT_THROW(args.reject_unknown({"jobs"}), ArgError);
}

TEST(Args, FirstUnknownFlagOnTheCommandLineIsNamed) {
  const char* argv[] = {"prog", "--zeta", "1", "--alpha", "2"};
  const Args args(5, argv);
  try {
    args.reject_unknown({});
    FAIL() << "unknown flags were accepted";
  } catch (const ArgError& e) {
    EXPECT_NE(std::string(e.what()).find("--zeta"), std::string::npos)
        << e.what();
  }
}

TEST(Args, DeclaredValueAndBooleanFlagsAreAccepted) {
  const char* argv[] = {"prog", "--session", "rev0.sp", "--jobs=4",
                        "--domain", "rf"};
  // "session" is declared boolean at construction, the rest by name.
  const Args args(6, argv, {"session"});
  EXPECT_NO_THROW(args.reject_unknown({"jobs", "domain"}));
  EXPECT_EQ(args.get_int("jobs", 1), 4);
  EXPECT_EQ(args.get("domain"), "rf");
  ASSERT_EQ(args.positional().size(), 1u);
  // A declared flag that is absent is fine; an undeclared present one
  // is not, even when it is boolean-looking.
  EXPECT_NO_THROW(args.reject_unknown({"jobs", "domain", "train"}));
  EXPECT_THROW(args.reject_unknown({"jobs"}), ArgError);
}

// Bounded ShardedCache: FIFO eviction per shard, counted, with lookups
// for evicted keys turning into ordinary misses. Keys that are multiples
// of 16 (below 2^32) all map to shard 0, so one shard's FIFO can be
// exercised deterministically.
TEST(ShardedCache, UnboundedByDefaultNeverEvicts) {
  ShardedCache<int> cache;
  EXPECT_EQ(cache.per_shard_capacity(), 0u);
  for (std::uint64_t k = 0; k < 4096; ++k) {
    cache.insert(k, std::make_shared<const int>(static_cast<int>(k)));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 4096u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(ShardedCache, EvictsOldestInsertedFirstAtCapacity) {
  ShardedCache<int> cache(3);  // per shard
  const auto key = [](std::uint64_t i) { return i * 16; };  // all shard 0
  for (std::uint64_t i = 0; i < 5; ++i) {
    cache.insert(key(i), std::make_shared<const int>(static_cast<int>(i)));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  // Oldest two inserted (0, 1) are gone; newest three remain.
  EXPECT_EQ(cache.find(key(0)), nullptr);
  EXPECT_EQ(cache.find(key(1)), nullptr);
  for (std::uint64_t i = 2; i < 5; ++i) {
    const auto hit = cache.find(key(i));
    ASSERT_NE(hit, nullptr) << i;
    EXPECT_EQ(*hit, static_cast<int>(i));
  }
  // A re-insert of an evicted key is an ordinary insert: it evicts the
  // now-oldest survivor (2) and wins its slot back.
  cache.insert(key(0), std::make_shared<const int>(0));
  EXPECT_EQ(cache.find(key(2)), nullptr);
  ASSERT_NE(cache.find(key(0)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 3u);
}

TEST(ShardedCache, DuplicateInsertKeepsFirstValueAndEvictsNothing) {
  ShardedCache<int> cache(2);
  cache.insert(16, std::make_shared<const int>(1));
  const auto winner = cache.insert(16, std::make_shared<const int>(2));
  EXPECT_EQ(*winner, 1);  // first-insert-wins, bounded or not
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ShardedCache, PerShardCapacityHelperRoundsUp) {
  EXPECT_EQ(per_shard_capacity_for(0), 0u);    // unbounded stays unbounded
  EXPECT_EQ(per_shard_capacity_for(1), 1u);    // never rounds to zero
  EXPECT_EQ(per_shard_capacity_for(16), 1u);
  EXPECT_EQ(per_shard_capacity_for(17), 2u);
  EXPECT_EQ(per_shard_capacity_for(1024), 64u);
}

TEST(ShardedCache, CapacityHelperDerivesFromTheCacheShardCount) {
  // The helper and the cache must agree on one shard-count constant; a
  // hardcoded local copy once drifted and silently shrank total
  // capacity below the request.
  EXPECT_EQ(ShardedCache<int>::kShardCount, kCacheShardCount);
  for (std::size_t total = 1; total <= 4 * kCacheShardCount + 3; ++total) {
    EXPECT_GE(ShardedCache<int>::kShardCount * per_shard_capacity_for(total),
              total)
        << "requested total capacity " << total << " not covered";
  }
}

}  // namespace
}  // namespace gana
