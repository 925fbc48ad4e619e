/**
 * @file
 * Tests for interned AIR names (air/name.hh): one handle per byte
 * string within a module, handles that outlive later interns, byte
 * comparison across modules, text that round-trips through the name
 * table on every corpus app, and the store's method env hash checked
 * against a reference computed from printed text.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "air/module.hh"
#include "air/printer.hh"
#include "analysis/store.hh"
#include "corpus/generator.hh"
#include "corpus/named_apps.hh"
#include "framework/app_text.hh"

namespace sierra {
namespace {

TEST(AirNames, SameBytesGiveTheSameHandle)
{
    air::Module mod;
    air::Name a = mod.intern("com.example.Main");
    air::Name b = mod.intern(std::string("com.example.") + "Main");
    EXPECT_EQ(a.id(), b.id());
    EXPECT_EQ(&a.str(), &b.str());
    EXPECT_EQ(a.table(), &mod.names());
    EXPECT_EQ(a.hash(), air::hashNameBytes("com.example.Main"));
    EXPECT_NE(mod.intern("com.example.Other").id(), a.id());
    // The empty string is the default handle, owned by no table.
    EXPECT_TRUE(mod.intern("").empty());
    EXPECT_EQ(mod.intern("").id(), air::Name::kNoId);
    EXPECT_EQ(mod.intern(""), air::Name());
}

TEST(AirNames, HandlesStayValidAfterManyMoreInterns)
{
    air::Module mod;
    std::vector<air::Name> first;
    std::vector<const std::string *> text;
    for (int i = 0; i < 100; ++i) {
        first.push_back(mod.intern("first." + std::to_string(i)));
        text.push_back(&first.back().str());
    }
    for (int i = 0; i < 20000; ++i)
        mod.intern("later." + std::to_string(i));
    EXPECT_EQ(mod.names().size(), 20100u);
    for (int i = 0; i < 100; ++i) {
        const std::string want = "first." + std::to_string(i);
        EXPECT_EQ(first[i].str(), want);
        EXPECT_EQ(&first[i].str(), text[i]) << "entries never move";
        EXPECT_EQ(mod.intern(want).id(), first[i].id());
        EXPECT_EQ(mod.names().at(first[i].id()), first[i]);
        EXPECT_EQ(mod.names().idOf(want), first[i].id());
    }
}

TEST(AirNames, HandlesOfDifferentModulesCompareByBytes)
{
    air::Module a, b;
    air::Name x = a.intern("A.b");
    air::Name y = b.intern("A.b");
    air::Name z = b.intern("A.c");
    EXPECT_NE(x.table(), y.table());
    EXPECT_EQ(x, y);
    EXPECT_NE(x, z);
    EXPECT_LT(x, z);
    EXPECT_EQ(x, "A.b");
    EXPECT_EQ(std::string("A.b"), x);
    EXPECT_EQ(b.names().intern(x), y) << "re-interning finds b's entry";
    // A lookup with another module's handle goes by bytes.
    b.addClass("K");
    EXPECT_NE(b.getClass(a.intern("K")), nullptr);
    EXPECT_EQ(b.getClass(a.intern("Missing")), nullptr);
}

TEST(AirNames, InstructionsOwnNoHeapMemory)
{
    static_assert(std::is_trivially_destructible_v<air::Instruction>);
    static_assert(std::is_trivially_copyable_v<air::Instruction>);
    air::Module mod;
    air::RegList regs = mod.regs({3, 1, 4});
    ASSERT_EQ(regs.size(), 3u);
    EXPECT_EQ(regs[0], 3);
    EXPECT_EQ(regs[2], 4);
    EXPECT_TRUE(mod.regs({}).empty());
}

/** Every app the corpus tests cover: the 20 named apps, the 174
 *  F-Droid analogues and 40 apps of the perfbench heavy shape. */
template <typename Fn>
void
forEachCorpusApp(Fn &&fn)
{
    for (const auto &spec : corpus::namedAppSpecs())
        fn(corpus::buildNamedApp(spec));
    for (int i = 0; i < corpus::kFdroidAppCount; ++i)
        fn(corpus::buildFdroidApp(i));
    for (uint32_t i = 0; i < 40; ++i) {
        corpus::SyntheticSpec spec;
        spec.seed = 0x4EA7u * 1000003u + i;
        spec.activities = 3;
        spec.minPatternsPerActivity = 12;
        spec.maxPatternsPerActivity = 12;
        fn(corpus::generateSyntheticApp("heavy-" + std::to_string(i),
                                        spec));
    }
}

TEST(AirNames, ParsePrintRoundTripsEveryCorpusApp)
{
    int apps = 0;
    forEachCorpusApp([&](const corpus::BuiltApp &built) {
        const std::string text = framework::printAppText(*built.app);
        framework::AppTextResult parsed = framework::parseAppText(text);
        ASSERT_TRUE(parsed.ok()) << built.app->name() << ": "
                                 << parsed.error;
        EXPECT_EQ(framework::printAppText(*parsed.app), text)
            << built.app->name();
        ++apps;
    });
    EXPECT_EQ(apps, 20 + corpus::kFdroidAppCount + 40);
}

/** The class-slice text of a class: its header and field lines as the
 *  printer renders them (the method lines dropped). */
std::string
sliceText(const air::Klass &klass)
{
    std::istringstream in(air::printKlass(klass, false));
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("method ") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

TEST(AirNames, EnvHashesAreEqualExactlyWhenPrintedTextIs)
{
    // Reference: a method's printed body plus its class slice. Two
    // methods of any of the apps must share an env hash exactly when
    // they share that text.
    std::unordered_map<std::string, uint64_t> hash_of_text;
    std::unordered_map<uint64_t, std::string> text_of_hash;
    size_t methods = 0;
    forEachCorpusApp([&](const corpus::BuiltApp &built) {
        framework::AppTextResult parsed =
            framework::parseAppText(framework::printAppText(*built.app));
        ASSERT_TRUE(parsed.ok()) << parsed.error;
        for (const air::Klass *klass : parsed.app->module().classes()) {
            if (klass->isFramework())
                continue;
            const std::string slice = sliceText(*klass);
            for (const air::Method *m : klass->methods()) {
                if (!m->hasBody())
                    continue;
                const std::string text = air::printMethod(*m) + slice;
                const uint64_t hash = analysis::store::methodEnvHash(*m);
                auto [h, new_text] = hash_of_text.try_emplace(text, hash);
                EXPECT_EQ(h->second, hash)
                    << "equal text, different hash:\n"
                    << text;
                auto [t, new_hash] = text_of_hash.try_emplace(hash, text);
                EXPECT_EQ(t->second, text)
                    << "equal hash, different text:\n"
                    << text << "---\n"
                    << t->second;
                ++methods;
            }
        }
    });
    EXPECT_GT(methods, 5000u);
    EXPECT_EQ(hash_of_text.size(), text_of_hash.size());
    EXPECT_LT(hash_of_text.size(), methods)
        << "the corpus repeats method texts, so some hashes are shared";
}

TEST(AirNames, StoreSchemaIsFive)
{
    EXPECT_EQ(analysis::store::kStoreSchemaVersion, 5);
}

} // namespace
} // namespace sierra
