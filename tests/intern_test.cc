/** @file Tests for the deterministic string interner. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/intern.hh"

namespace sierra::util {
namespace {

TEST(Intern, FirstInternOrderAssignsDenseIds)
{
    StringInterner t;
    EXPECT_EQ(t.intern("a"), 0u);
    EXPECT_EQ(t.intern("b"), 1u);
    EXPECT_EQ(t.intern("c"), 2u);
    EXPECT_EQ(t.intern("b"), 1u) << "re-intern returns the same id";
    EXPECT_EQ(t.size(), 3u);
}

TEST(Intern, NameRoundTrips)
{
    StringInterner t;
    InternId id = t.intern("ClassA.fieldX");
    EXPECT_EQ(t.name(id), "ClassA.fieldX");
    // The reference must be stable across further interning (deque
    // storage never moves elements).
    const std::string *p = &t.name(id);
    for (int i = 0; i < 1000; ++i)
        t.intern("filler" + std::to_string(i));
    EXPECT_EQ(p, &t.name(id));
}

TEST(Intern, FindDoesNotIntern)
{
    StringInterner t;
    EXPECT_EQ(t.find("missing"), StringInterner::kInvalid);
    EXPECT_EQ(t.size(), 0u);
    InternId id = t.intern("present");
    EXPECT_EQ(t.find("present"), id);
}

TEST(Intern, SameOrderSameIds)
{
    // The determinism contract: two interners fed the same sequence
    // assign identical ids.
    std::vector<std::string> keys = {"x", "y", "x", "z", "y", "w"};
    StringInterner a, b;
    for (const std::string &k : keys)
        EXPECT_EQ(a.intern(k), b.intern(k)) << k;
}

} // namespace
} // namespace sierra::util
