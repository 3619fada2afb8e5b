#include "base/interner.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace kbt {
namespace {

TEST(InternerTest, InternIsIdempotent) {
  Interner interner;
  Symbol a = interner.Intern("alpha");
  Symbol b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.NameOf(a), "alpha");
  EXPECT_EQ(interner.NameOf(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, LookupWithoutIntern) {
  Interner interner;
  Symbol out = 0;
  EXPECT_FALSE(interner.Lookup("missing", &out));
  Symbol a = interner.Intern("present");
  EXPECT_TRUE(interner.Lookup("present", &out));
  EXPECT_EQ(out, a);
}

TEST(InternerTest, GlobalInternerIsStable) {
  Symbol a1 = Name("kbt_test_global_a");
  Symbol a2 = Name("kbt_test_global_a");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(NameOf(a1), "kbt_test_global_a");
}

TEST(InternerTest, ConcurrentInterningIsConsistent) {
  Interner interner;
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  std::vector<std::vector<Symbol>> results(kThreads,
                                           std::vector<Symbol>(kNames, 0));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kNames; ++i) {
        results[static_cast<size_t>(t)][static_cast<size_t>(i)] =
            interner.Intern("name" + std::to_string(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)], results[0]);
  }
  EXPECT_EQ(interner.size(), static_cast<size_t>(kNames));
}

TEST(InternerTest, SlicedViewResolvesToItsOwnName) {
  Interner interner;
  const std::string buffer = "n123";
  const Symbol longer = interner.Intern(buffer);
  const std::string_view prefix = std::string_view(buffer).substr(0, 3);
  Symbol out = 0;
  EXPECT_FALSE(interner.Lookup(prefix, &out));
  const Symbol shorter = interner.Intern(prefix);
  EXPECT_NE(shorter, longer);
  EXPECT_EQ(interner.NameOf(shorter), "n12");
  ASSERT_TRUE(interner.Lookup(prefix, &out));
  EXPECT_EQ(out, shorter);
  ASSERT_TRUE(interner.Lookup(buffer, &out));
  EXPECT_EQ(out, longer);

  // The index keeps the interner's copy of a name, not the caller's buffer.
  std::string scratch = "n1";
  const Symbol n1 = interner.Intern(scratch);
  scratch.assign("zz");
  EXPECT_FALSE(interner.Lookup("zz", &out));
  ASSERT_TRUE(interner.Lookup("n1", &out));
  EXPECT_EQ(out, n1);
  EXPECT_EQ(interner.size(), 3u);
}

}  // namespace
}  // namespace kbt
